"""End-to-end acceptance suite.

Nine checks, one test per criterion, covering: aggregation algebra,
median robustness to a hostile client, the proximal-training contract,
gradient correctness against finite differences, the global/federated/local
accuracy ordering, the rounds-versus-epochs schedule trade-off, epoch
accounting, detection-metric agreement with an independent oracle, and
bit-level determinism, with client-lockstep training equal to training each
client on its own.

Each test emits a single ``[criterion N] PASS/FAIL`` line with the measured
quantities, printed outside pytest's capture so the lines land in piped
logs as well.
"""
from __future__ import annotations

import json
import tempfile
import time

import numpy as np

from fedsim import (
    AggregatorState,
    Detection,
    FedOptConfig,
    GroundTruth,
    RoundUpdates,
    TaskModel,
    TrainerConfig,
    aggregate,
    cli,
    evaluate_detections,
    generate_federation,
    iou,
    orchestration,
    run_federated,
    run_global_baseline,
    run_local_baseline,
    schedule_presets,
    train,
)
from fedsim.detection import Box
from fedsim.params import ParamVector, l2_distance


def say(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def pvec(values) -> ParamVector:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    return ParamVector(arr, (("w", (arr.size,)),))


def updates_from(rows, counts) -> RoundUpdates:
    """One round in which client k returned ``rows[k]`` from ``counts[k]``
    samples."""
    block = np.array(rows, dtype=np.float64)
    return RoundUpdates(tuple(range(len(block))), block, np.asarray(counts),
                        np.zeros((1, len(block))), (("w", (block.shape[1],)),))


# ---------------------------------------------------------------------------
# 1. Aggregation algebra


def test_criterion_1_aggregation_algebra(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    problems = []

    # Fixed point: when every client hands back the global vector unchanged,
    # every strategy must return it. The server-optimizer step is exactly
    # zero (zero displacement, zero moments), so even that path is bitwise.
    g = pvec(rng.normal(size=40))
    stay = updates_from([g.values] * 8, rng.integers(1, 500, size=8))
    for strategy in ("fedavg", "fedprox", "fedmedian", "fedopt"):
        out, _ = aggregate(strategy, g, stay)
        err = np.max(np.abs(out.values - g.values))
        if err > 1e-12:
            problems.append(f"fixed point broken for {strategy}: err {err:.3e}")
        if strategy in ("fedmedian", "fedopt") and not np.array_equal(
                out.values, g.values):
            problems.append(f"{strategy} fixed point not bitwise")

    # Convex hull: a weighted mean stays inside the per-coordinate envelope.
    for _ in range(50):
        rows = rng.normal(size=(8, 17))
        ups = updates_from(rows, rng.integers(1, 400, size=8))
        out, _ = aggregate("fedavg", g := pvec(rows[0]), ups)
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        if not (np.all(out.values >= lo - 1e-12)
                and np.all(out.values <= hi + 1e-12)):
            problems.append("weighted mean escaped the convex hull")
            break

    # Permutation invariance: client arrival order cannot matter. The ids
    # are positional bookkeeping, so shuffling rows and relabelling in the
    # new order must give the same aggregate.
    rows = rng.normal(size=(8, 23))
    counts = rng.integers(1, 400, size=8)
    base_vec = pvec(rng.normal(size=23))
    perm = rng.permutation(8)
    for strategy in ("fedavg", "fedmedian", "fedopt"):
        a, _ = aggregate(strategy, base_vec, updates_from(rows, counts))
        b, _ = aggregate(strategy, base_vec,
                         updates_from(rows[perm], counts[perm]))
        err = np.max(np.abs(a.values - b.values))
        if err > 1e-12:
            problems.append(f"permutation changed {strategy} by {err:.3e}")

    # Single client: the averaging families must pass the lone update
    # through untouched, bit for bit.
    lone = updates_from([rows[3]], [7])
    for strategy in ("fedavg", "fedprox", "fedmedian"):
        out, _ = aggregate(strategy, base_vec, lone)
        if not np.array_equal(out.values, rows[3]):
            problems.append(f"single-client {strategy} not a passthrough")

    # Hand-traced server optimizer, two rounds with carried state.
    g = pvec([1.0, 2.0])
    cfg = FedOptConfig(variant="adam", server_learning_rate=0.1,
                       beta1=0.9, beta2=0.99, tau=1e-3)
    first, state = aggregate("fedopt", g, updates_from([[2.0, 4.0]], [3]),
                             fedopt=cfg)
    delta = np.array([1.0, 2.0])
    m = 0.1 * delta
    v = 0.01 * delta ** 2
    expect = g.values + 0.1 * m / (np.sqrt(v) + 1e-3)
    if np.max(np.abs(first.values - expect)) > 1e-12 * np.max(np.abs(expect)):
        problems.append("adam hand trace round 1 mismatch")
    second, _ = aggregate("fedopt", first, updates_from([[2.0, 4.0]], [3]),
                          state, fedopt=cfg)
    delta2 = np.array([2.0, 4.0]) - first.values
    m = 0.9 * m + 0.1 * delta2
    v = 0.99 * v + 0.01 * delta2 ** 2
    expect2 = first.values + 0.1 * m / (np.sqrt(v) + 1e-3)
    if np.max(np.abs(second.values - expect2)) > 1e-12 * np.max(np.abs(expect2)):
        problems.append("adam hand trace round 2 mismatch")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    say(capsys, f"[criterion 1] {'PASS' if ok else 'FAIL'} aggregation algebra: "
        f"fixed point, hull, permutation, single client, adam trace "
        f"({elapsed:.2f}s)")
    assert not problems, problems
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Median robustness


def test_criterion_2_fedmedian_byzantine(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(200):
        dim = int(rng.integers(3, 13))
        honest = rng.normal(size=dim)
        rows = np.tile(honest, (8, 1))
        bad = int(rng.integers(0, 8))
        # Arbitrary finite garbage, up to absurd magnitudes.
        rows[bad] = rng.choice([-1.0, 1.0], size=dim) * 10.0 ** rng.uniform(
            -2, 300, size=dim)
        counts = rng.integers(1, 1000, size=8)
        out, _ = aggregate("fedmedian", pvec(honest), updates_from(rows, counts))
        honest_rows = np.delete(rows, bad, axis=0)
        med = np.median(honest_rows, axis=0)
        assert np.array_equal(out.values, med), f"trial {trial}"
        assert np.all(out.values >= honest_rows.min(axis=0))
        assert np.all(out.values <= honest_rows.max(axis=0))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    say(capsys, f"[criterion 2] {'PASS' if ok else 'FAIL'} fedmedian byzantine: "
        f"200 trials, aggregate == honest median, inside honest envelope "
        f"({elapsed:.2f}s)")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. Proximal training contract


def plain_sgd(model, initial, data, cfg, round_index=0):
    """Reference loop rebuilt from the documented update rule, no prox."""
    w = initial.values.copy()
    n = len(data)
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(
            (cfg.seed, round_index, epoch)).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grad = model.loss_and_gradient_flat(
                w, data.features[idx], data.labels[idx])
            w = w - cfg.learning_rate * grad
    return w


def test_criterion_3_fedprox_contract(capsys):
    t0 = time.perf_counter()
    model = TaskModel()
    clients, _ = generate_federation(seed=0)
    client = clients[0]
    anchor = model.init_weights(0)

    cfg0 = TrainerConfig(epochs=12, learning_rate=0.02, seed=0, prox_mu=0.0)
    trained = train(model, anchor, client.train, cfg0)
    reference = plain_sgd(model, anchor, client.train, cfg0)
    bitwise = np.array_equal(trained.block[0], reference)

    # The anchor pull strengthens with mu; the learning rate is chosen so
    # the stiffest setting still iterates stably (lr * mu must stay < 2).
    distances = []
    for mu in (0.0, 0.1, 10.0, 1000.0):
        cfg = TrainerConfig(epochs=30, learning_rate=0.001, seed=0, prox_mu=mu)
        upd = train(model, anchor, client.train, cfg)
        distances.append(l2_distance(ParamVector(upd.block[0], upd.manifest),
                                     anchor))
    monotone = all(b <= a for a, b in zip(distances, distances[1:]))

    elapsed = time.perf_counter() - t0
    ok = bitwise and monotone and elapsed < 30.0
    shown = ", ".join(f"{d:.6f}" for d in distances)
    say(capsys, f"[criterion 3] {'PASS' if ok else 'FAIL'} fedprox contract: "
        f"mu=0 bitwise={bitwise}, anchor distance [{shown}] ({elapsed:.2f}s)")
    assert bitwise
    assert monotone, distances
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. Gradients against central finite differences


def test_criterion_4_gradient_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    h = 1e-6
    worst = 0.0
    for architecture in ("linear", "one_hidden_layer"):
        model = TaskModel(input_dim=6, num_classes=3, architecture=architecture,
                          hidden_units=5)
        x = rng.normal(size=(16, 6))
        y = rng.integers(0, 3, size=16)
        anchor = rng.normal(size=model.num_params)
        for mu in (0.0, 0.37):
            for _ in range(20):
                w = rng.normal(scale=0.5, size=model.num_params)
                _, grad = model.loss_and_gradient_flat(w, x, y)
                analytic = grad + mu * (w - anchor)
                numeric = np.empty_like(w)
                for i in range(w.size):
                    bumped = w.copy()
                    bumped[i] = w[i] + h
                    up, _ = model.loss_and_gradient_flat(bumped, x, y)
                    up += 0.5 * mu * np.sum((bumped - anchor) ** 2)
                    bumped[i] = w[i] - h
                    down, _ = model.loss_and_gradient_flat(bumped, x, y)
                    down += 0.5 * mu * np.sum((bumped - anchor) ** 2)
                    numeric[i] = (up - down) / (2 * h)
                rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
                worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    say(capsys, f"[criterion 4] {'PASS' if ok else 'FAIL'} gradient check: "
        f"max relative error {worst:.3e} over both architectures, "
        f"with and without prox ({elapsed:.2f}s)")
    assert worst <= 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 5. Ordering of global, federated, local


def test_criterion_5_ordering_reproduction(capsys):
    t0 = time.perf_counter()
    model = TaskModel()
    schedule = schedule_presets()["opt3"]
    global_acc, local_acc, fed_acc = [], [], []
    for seed in range(5):
        clients, group = generate_federation(seed=seed)
        global_acc.append(run_global_baseline(
            model, clients, group, 150, seed=seed).test_accuracy)
        local_acc.append(run_local_baseline(
            model, clients, group, 150, seed=seed).mean_test_accuracy)
        fed_acc.append(run_federated(
            model, clients, group, schedule, "fedavg", seed=seed).test_accuracy)
    g, f, l = np.mean(global_acc), np.mean(fed_acc), np.mean(local_acc)
    elapsed = time.perf_counter() - t0
    ok = (g >= f >= l and g - l >= 0.05 and f - l >= 0.02 and elapsed < 300.0)
    say(capsys, f"[criterion 5] {'PASS' if ok else 'FAIL'} ordering: "
        f"global {g:.4f} >= fedavg {f:.4f} >= local {l:.4f}, "
        f"gaps g-l {g - l:+.4f}, f-l {f - l:+.4f} ({elapsed:.1f}s)")
    assert g >= f >= l, (g, f, l)
    assert g - l >= 0.05
    assert f - l >= 0.02
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 6. Schedule trade-off: accuracy comparable, duration grows with rounds


def test_criterion_6_schedule_tradeoff(capsys):
    t0 = time.perf_counter()
    model = TaskModel()
    presets = schedule_presets()
    names = list(presets)

    acc = {name: [] for name in names}
    for seed in range(5):
        clients, group = generate_federation(seed=seed)
        for name in names:
            acc[name].append(run_federated(
                model, clients, group, presets[name], "fedavg",
                seed=seed).test_accuracy)
    means = {name: float(np.mean(acc[name])) for name in names}
    best = max(means, key=means.get)
    acc_ok = (means["opt3"] >= means["opt1"] - 0.005
              and means["opt4"] >= means["opt1"] - 0.005
              and best != "opt1")

    # Duration grows with the round count because every round pays for
    # synchronization, aggregation, per-round evaluation, and a checkpoint.
    # With the default tiny model that overhead sits below this host's
    # timing noise, so the wall-clock comparison runs on a configuration
    # where rounds are costly by construction: a wide model, a small
    # training split (the fixed 150-epoch budget stays cheap), and large
    # validation splits (the mandated per-round evaluation is real work).
    # Floors are taken over repeated interleaved passes to cancel machine
    # drift.
    wide = TaskModel(input_dim=512, architecture="one_hidden_layer",
                     hidden_units=64)
    feds = {s: generate_federation(num_clients=8, split=(8, 384, 8), seed=s,
                                   input_dim=512)
            for s in range(3)}

    def timed(name, seed, out_dir):
        clients, group = feds[seed]
        return run_federated(model=wide, clients=clients, group_all=group,
                             schedule=presets[name], strategy="fedavg",
                             seed=seed, learning_rate=0.05, batch_size=8,
                             checkpoint_dir=out_dir).total_duration_s

    with tempfile.TemporaryDirectory() as td:
        for name in names:  # warm-up pass, discarded
            timed(name, 0, td)
        cells = {(name, s): [] for name in names for s in range(3)}
        for rep in range(5):
            ordered = names[rep % 4:] + names[:rep % 4]
            for name in ordered:
                for s in range(3):
                    cells[(name, s)].append(timed(name, s, td))
    floors = {name: sum(min(cells[(name, s)]) for s in range(3))
              for name in names}
    durations = [floors[name] for name in names]
    duration_ok = all(b >= a for a, b in zip(durations, durations[1:]))

    elapsed = time.perf_counter() - t0
    ok = acc_ok and duration_ok and elapsed < 600.0
    shown_acc = ", ".join(f"{n} {means[n]:.4f}" for n in names)
    shown_dur = ", ".join(f"{n} {floors[n]:.3f}s" for n in names)
    say(capsys, f"[criterion 6] {'PASS' if ok else 'FAIL'} schedule trade-off: "
        f"acc [{shown_acc}] best={best}; duration [{shown_dur}] "
        f"({elapsed:.1f}s)")
    assert acc_ok, means
    assert duration_ok, floors
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. Epoch accounting


def test_criterion_7_epoch_accounting(capsys):
    t0 = time.perf_counter()
    model = TaskModel()
    clients, group = generate_federation(seed=0)
    counts = {}
    for name, schedule in schedule_presets().items():
        result = run_federated(model, clients, group, schedule, "fedavg", seed=0)
        counts[name] = set(result.client_epoch_counts)
    local = run_local_baseline(model, clients, group, 150, seed=0)
    counts["local"] = {len(trace) for trace in local.client_loss_traces}
    glob = run_global_baseline(model, clients, group, 150, seed=0)
    counts["global"] = {len(glob.loss_trace)}
    elapsed = time.perf_counter() - t0
    ok = all(c == {150} for c in counts.values())
    say(capsys, f"[criterion 7] {'PASS' if ok else 'FAIL'} epoch accounting: "
        f"loss traces show exactly 150 epochs per trained model across "
        f"{len(counts)} scenarios ({elapsed:.1f}s)")
    assert ok, counts


# ---------------------------------------------------------------------------
# 8. Detection metrics against an independent oracle


def oracle_match(detections, ground_truths, threshold):
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    used = set()
    labels = [False] * len(detections)
    for di in order:
        d = detections[di]
        best, best_gi = 0.0, None
        for gi, g in enumerate(ground_truths):
            if gi in used or g.image_id != d.image_id or g.class_id != d.class_id:
                continue
            ix0 = max(d.box.x_min, g.box.x_min)
            iy0 = max(d.box.y_min, g.box.y_min)
            ix1 = min(d.box.x_max, g.box.x_max)
            iy1 = min(d.box.y_max, g.box.y_max)
            if ix1 <= ix0 or iy1 <= iy0:
                continue
            inter = (ix1 - ix0) * (iy1 - iy0)
            overlap = inter / (d.box.area + g.box.area - inter)
            if overlap > best:
                best, best_gi = overlap, gi
        if best_gi is not None and best >= threshold:
            used.add(best_gi)
            labels[di] = True
    return labels


def oracle_class_ap(detections, labels, ground_truths, cls):
    scored = sorted(((d.confidence, i) for i, d in enumerate(detections)
                     if d.class_id == cls),
                    key=lambda pair: (-pair[0], pair[1]))
    num_gt = sum(1 for g in ground_truths if g.class_id == cls)
    precisions, recalls = [], []
    tp = fp = 0
    for _, i in scored:  # one operating point per confidence level
        if labels[i]:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / num_gt)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap, prev = 0.0, 0.0
    for r, p in zip(recalls, precisions):
        ap += (r - prev) * p
        prev = r
    return ap


def random_detection_instance(rng):
    classes = ["c0", "c1", "c2"]
    gts, dets = [], []
    for image in ("img0", "img1"):
        boxes = []
        for _ in range(rng.integers(1, 4)):
            x0, y0 = rng.uniform(0, 8, 2)
            box = Box(x0, y0, x0 + rng.uniform(1, 4), y0 + rng.uniform(1, 4))
            boxes.append(box)
            gts.append(GroundTruth(image, str(rng.choice(classes)), box))
        for _ in range(rng.integers(0, 4)):  # at most 6 boxes in an image
            anchor = boxes[rng.integers(0, len(boxes))]
            x0 = anchor.x_min + rng.normal(scale=1.0)
            y0 = anchor.y_min + rng.normal(scale=1.0)
            dets.append(Detection(image, str(rng.choice(classes)),
                                  float(rng.uniform(0, 1)),
                                  Box(x0, y0, x0 + rng.uniform(1, 4),
                                      y0 + rng.uniform(1, 4))))
    return dets, gts


def test_criterion_8_detection_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    fixture = iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2))
    fixture_ok = abs(fixture - 1.0 / 3.0) <= 1e-12

    rng = np.random.default_rng(808)
    for trial in range(1000):
        dets, gts = random_detection_instance(rng)
        report = evaluate_detections(dets, gts, 0.5)
        labels = oracle_match(dets, gts, 0.5)
        tp = sum(labels)
        expect_precision = tp / len(dets) if dets else 0.0
        expect_recall = tp / len(gts)
        classes = sorted({g.class_id for g in gts}, key=str)
        expect_ap = {cls: oracle_class_ap(dets, labels, gts, cls)
                     for cls in classes}
        assert report.per_class_ap == expect_ap, f"trial {trial}"
        assert report.mean_ap == sum(expect_ap.values()) / len(expect_ap)
        assert report.precision == expect_precision, f"trial {trial}"
        assert report.recall == expect_recall, f"trial {trial}"
    elapsed = time.perf_counter() - t0
    ok = fixture_ok and elapsed < 30.0
    say(capsys, f"[criterion 8] {'PASS' if ok else 'FAIL'} detection oracle: "
        f"1000 instances agree exactly, iou fixture err "
        f"{abs(fixture - 1.0 / 3.0):.1e} ({elapsed:.1f}s)")
    assert fixture_ok, fixture
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 9. Determinism and parallelism


def per_client_train(model, initial, clients, cfg, *, round_index=0):
    """train_clients as a plain loop: one train call per client, in id order."""
    ids = sorted(clients)
    alone = [train(model, initial, clients[cid], cfg, round_index=round_index,
                   client_id=cid) for cid in ids]
    return RoundUpdates(tuple(ids), np.concatenate([a.block for a in alone]),
                        np.concatenate([a.sample_counts for a in alone]),
                        np.hstack([a.loss_traces for a in alone]),
                        initial.manifest)


def test_criterion_9_determinism_and_parallelism(capsys, monkeypatch):
    t0 = time.perf_counter()
    model = TaskModel()
    clients, group = generate_federation(seed=3)
    schedule = schedule_presets()["opt3"]

    # two lockstep runs, then the per-client path
    runs = [
        run_federated(model, clients, group, schedule, "fedavg", seed=3),
        run_federated(model, clients, group, schedule, "fedavg", seed=3),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(orchestration, "train_clients", per_client_train)
        runs.append(
            run_federated(model, clients, group, schedule, "fedavg", seed=3))
    reference = runs[0]
    weights_ok = all(np.array_equal(r.final_weights.values,
                                    reference.final_weights.values)
                     for r in runs[1:])
    metrics_ok = all(
        r.test_accuracy == reference.test_accuracy
        and r.client_test_accuracies == reference.client_test_accuracies
        and [rec.val_accuracy for rec in r.rounds]
            == [rec.val_accuracy for rec in reference.rounds]
        for r in runs[1:])

    config = {"num_clients": 2, "split": [20, 8, 8], "rounds": 2,
              "epochs_per_round": 2, "total_epochs": 4, "batch_size": 8,
              "seed": 11}
    with tempfile.TemporaryDirectory() as td:
        cfg_path = f"{td}/config.json"
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        summaries = []
        for run_dir in ("a", "b"):
            out = f"{td}/{run_dir}"
            assert cli.main(["run", "--config", cfg_path, "--out", out]) == 0
            with open(f"{out}/summary.json") as fh:
                payload = json.load(fh)
            payload.pop("timing")
            summaries.append(payload)
    summary_ok = summaries[0] == summaries[1]

    elapsed = time.perf_counter() - t0
    ok = weights_ok and metrics_ok and summary_ok
    say(capsys, f"[criterion 9] {'PASS' if ok else 'FAIL'} determinism: "
        f"lockstep == per-client train bitwise, repeated runs emit identical "
        f"summaries ({elapsed:.1f}s)")
    assert weights_ok
    assert metrics_ok
    assert summary_ok
