"""Rounds versus local epochs at a fixed 150-epoch budget.

Few rounds of long local training drift toward each client's skewed
objective; many short rounds re-anchor on the shared model more often but
pay more synchronization overhead. The four presets walk that line.
"""
from fedsim import TaskModel, generate_federation, run_federated, schedule_presets

model = TaskModel()
clients = generate_federation(seed=0)

print(f"{'preset':8s} {'rounds':>6s} {'epochs':>6s} {'test acc':>9s} {'duration':>9s}")
for name, schedule in schedule_presets().items():
    result = run_federated(model, clients, schedule, "fedavg", seed=0)
    print(f"{name:8s} {schedule.rounds:6d} {schedule.epochs_per_round:6d} "
          f"{result.test_accuracy:9.4f} {result.total_duration_s:8.2f}s")

print()
print("every preset spends exactly the same local budget:")
for name, schedule in schedule_presets().items():
    print(f"  {name}: {schedule.rounds} x {schedule.epochs_per_round} "
          f"= {schedule.total_epochs} epochs")
