"""Build a synthetic non-IID federation and look at what makes it non-IID.

Each client draws labels from its own Dirichlet-sampled class prior and
shifts every feature vector by a client-specific offset, so the clients
disagree both in label balance and in feature geometry.
"""
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from fedsim import generate_federation
from fedsim.data import HeterogeneityConfig, load_federation, save_federation

clients = generate_federation(seed=7)

# The pooled data is not generated apart: the global baseline trains on the
# clients' train splits concatenated in id order.
print(f"{len(clients)} clients, pooled train size "
      f"{sum(len(c.train) for c in clients)}")
print()

# Label skew: with the default Dirichlet alpha of 0.3 most clients lean
# hard into one or two classes.
print("label counts per client (train split):")
for c in clients:
    counts = Counter(int(y) for y in c.train.labels)
    row = "  ".join(f"c{k}:{counts.get(k, 0):3d}" for k in range(4))
    print(f"  client {c.client_id}: {row}")
print()

# Feature shift: every sample of a client carries the same offset vector.
# Subtracting two same-label means across clients exposes it.
print("pairwise feature-mean distance, client 1 vs client 2:")
m1 = clients[0].train.features.mean(axis=0)
m2 = clients[1].train.features.mean(axis=0)
print(f"  ||mean_1 - mean_2|| = {np.linalg.norm(m1 - m2):.3f}")
print()

# Cranking alpha way up washes the skew out again.
mild = HeterogeneityConfig(label_skew_alpha=100.0, feature_shift_scale=0.0)
mild_clients = generate_federation(seed=7, heterogeneity=mild)
counts = Counter(int(y) for y in mild_clients[0].train.labels)
print("client 1 label counts at alpha=100, no shift:",
      dict(sorted(counts.items())))
print()

# Federations round-trip through a directory: one file, federation.bin, whose
# JSON header lists each client's row counts, followed by every client's
# float64 features and int64 labels.
with tempfile.TemporaryDirectory() as td:
    save_federation(clients, Path(td), metadata={"seed": 7})
    reloaded = load_federation(Path(td))
    same = all(
        np.array_equal(a.train.features, b.train.features)
        for a, b in zip(clients, reloaded))
    print(f"save/load round trip exact: {same}")
