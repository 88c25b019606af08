"""Local silos versus pooled training versus federated averaging.

The three regimes spend the same 150-epoch training budget per model.
Pooling everything is the ceiling nobody can have in practice, isolated
local models are the floor, and federated training lands in between
without any raw data ever leaving a client.
"""
import numpy as np

from fedsim import (
    TaskModel,
    generate_federation,
    run_federated,
    run_global_baseline,
    run_local_baseline,
    schedule_presets,
)

seed = 0
model = TaskModel()
clients = generate_federation(seed=seed)
schedule = schedule_presets()["opt3"]  # 10 rounds x 15 epochs

print("training three ways on the same federation (seed 0)...")
# the global baseline trains on the clients' train splits pooled in id order
glob = run_global_baseline(model, clients, 150, seed=seed)
local = run_local_baseline(model, clients, 150, seed=seed)
fed = run_federated(model, clients, schedule, "fedavg", seed=seed)

print()
print(f"  pooled (global) : {glob.test_accuracy:.4f}")
print(f"  federated avg   : {fed.test_accuracy:.4f}")
print(f"  local average   : {local.mean_test_accuracy:.4f}")
print()

print("per-client test accuracy of each silo model:")
for cid, acc in zip(local.client_ids, local.client_test_accuracies):
    print(f"  client {cid}: {acc:.4f}")
print()

print("federated validation accuracy per round:")
for rec in fed.rounds:
    bar = "#" * int(rec.val_accuracy * 40)
    print(f"  round {rec.round_number:2d} ({rec.cumulative_epochs:3d} epochs)"
          f"  {rec.val_accuracy:.4f} {bar}")

# The other strategies run through the same loop.
for strategy in ("fedprox", "fedmedian", "fedopt"):
    result = run_federated(model, clients, schedule, strategy, seed=seed)
    print(f"{strategy:9s} final test accuracy: {result.test_accuracy:.4f}")
