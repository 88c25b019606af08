"""One round of client updates pushed through each aggregation rule.

Shows count weighting in the plain average, what a hostile client does to
the mean versus the coordinate median, and two server-optimizer steps with
carried momentum state.
"""
import numpy as np

from fedsim import AggregatorState, FedOptConfig, RoundUpdates, aggregate
from fedsim.params import ParamVector


def vec(values):
    arr = np.asarray(values, dtype=np.float64)
    return ParamVector(arr, (("w", (arr.size,)),))


def round_of(weights, counts):
    """One round: client k + 1 returned ``weights[k]`` from ``counts[k]`` samples.

    The server sees all of a round's client weights as one (K, P) block,
    one row per client in id order.
    """
    block = np.array(weights, dtype=np.float64)
    return RoundUpdates(tuple(range(1, len(block) + 1)), block,
                        np.array(counts), np.zeros((1, len(block))),
                        (("w", (block.shape[1],)),))


global_w = vec([0.0, 0.0, 0.0])

# Count weighting: client 1 holds three times the data, so it pulls the
# average three quarters of the way toward itself.
ups = round_of([[4.0, 0.0, 8.0], [0.0, 4.0, 0.0]], [300, 100])
avg, _ = aggregate("fedavg", global_w, ups)
print("fedavg, 300 vs 100 samples:", avg.values)

# A hostile client wrecks the mean but barely grazes the median.
attacked = round_of([[1.0, 1.0, 1.0]] * 7 + [[1e9, -1e9, 1e9]], [50] * 8)
wrecked, _ = aggregate("fedavg", global_w, attacked)
robust, _ = aggregate("fedmedian", global_w, attacked)
print("mean with a hostile client:  ", wrecked.values)
print("median with a hostile client:", robust.values)

# The server optimizer treats the averaged client displacement as a
# pseudo-gradient. Running the same update twice shows momentum building.
cfg = FedOptConfig(variant="adam", server_learning_rate=0.1)
state = AggregatorState()
w = vec([1.0, 2.0, 3.0])
for step in range(1, 3):
    w, state = aggregate("fedopt", w, round_of([[2.0, 4.0, 6.0]], [10]),
                         state, fedopt=cfg)
    print(f"adam step {step}:", np.round(w.values, 4))

# Yogi and adagrad share the machinery, they only accumulate the second
# moment differently.
for variant in ("adagrad", "yogi"):
    out, _ = aggregate("fedopt", vec([1.0, 2.0, 3.0]),
                       round_of([[2.0, 4.0, 6.0]], [10]),
                       fedopt=FedOptConfig(variant=variant))
    print(f"{variant} first step:", np.round(out.values, 4))
