"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here; the recovery benchmark
lives in conftest.benchmark_config.
"""

import time

import numpy as np

from scool.config import ExperimentConfig
from scool.em import attention, dirac, mmsbm, rounds, sbm
from scool.em.elbo import elbo
from scool.em.state import DiracState, PROB_FLOOR
from scool.models import ArchSpec
from scool.runner import build_tasks, run_experiment
from scool.topology import (
    CROSS_GRADIENT,
    TAYLOR_APPROX,
    account_exchange,
    build_topology,
    directed_edges,
    observed_pairs,
    pair_list,
    pair_matrix,
    sparsify_topk,
)

from conftest import (
    BENCHMARK_SEEDS,
    LocalModel,
    attention_lists,
    benchmark_config,
    central_diff,
    client_store,
    clone_attention,
    clone_mmsbm,
    clone_sbm,
    full_mask,
    grad,
    loss,
    observed_list,
    own_and_cross,
    random_attention_setup,
    random_loglik,
    random_mmsbm_state,
    random_sbm_state,
    random_symmetric_mask,
    round_lists,
    simplex_kkt_spread,
    tiny_dataset,
    update_omega_row,
)

KKT_TOL = 1e-4
MONO_TOL = -1e-8
GRAD_TOL = 1e-4
DPSGD_TOL = 1e-12
MASKED_TRIALS = 8  # mmsbm draws under a pruned ring mask in criteria 1-2


def _report(num, name, detail, elapsed, budget):
    status = "PASS"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail}; {elapsed:.1f}s < {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


# -------------------------------------------------------------- benchmark
# Reports are computed lazily and shared across criteria 5-7.

_BENCH_CACHE = {}


def bench_report(prior, seed, grad_mode=CROSS_GRADIENT):
    key = (prior, seed, grad_mode)
    if key not in _BENCH_CACHE:
        _BENCH_CACHE[key] = run_experiment(benchmark_config(prior, seed, grad_mode))
    return _BENCH_CACHE[key]


def pruned_ring(rng, K):
    """A ring of reach 2 pruned as a run prunes it: each client keeps its
    ceil(0.3 (K - 1)) strongest (here random) weights."""
    ring = build_topology("group-ring", K, k0=K - 4)
    return sparsify_topk(rng.uniform(0.1, 1.0, (K, K)), ring, 0.3)


def _mmsbm_kkt_residual(mst, ll, mask):
    """Update the mmsbm w, gamma and each pair-membership side in turn and
    return the worst stationarity residual of each against the bound, over
    the observed pairs."""
    K, M = mst.n_clients, mst.n_blocks
    pairs = list(zip(*np.nonzero(observed_pairs(mask))))
    worst = 0.0
    mst.w = mmsbm.update_w(mst, *own_and_cross(mst, ll))
    for i, j in pairs:
        def f(v, i=i, j=j):
            w2 = mst.w.copy(); w2[i, j] = v
            return elbo(mmsbm, clone_mmsbm(mst, w=w2), *round_lists(mask, ll)).total
        worst = max(worst, abs(central_diff(f, mst.w[i, j], 1e-7)))
    mst.gamma = mmsbm.update_gamma(mst)
    for i in range(K):
        for g in range(M):
            def f(v, i=i, g=g):
                g2 = mst.gamma.copy(); g2[i, g] = v
                return elbo(mmsbm, clone_mmsbm(mst, gamma=g2), *round_lists(mask, ll)).total
            worst = max(worst, abs(central_diff(f, mst.gamma[i, g], 1e-6)))
    for side in ("send", "recv"):
        name = f"phi_{side}"
        setattr(mst, name, mmsbm.update_phi(mst, side))
        arr = getattr(mst, name)
        for e in range(len(mst.pairs)):
            grads = []
            for k in range(M):
                def f(v, e=e, k=k, name=name):
                    p2 = arr.copy(); p2[e, k] = v
                    return elbo(mmsbm, clone_mmsbm(mst, **{name: p2}), *round_lists(mask, ll)).total
                grads.append(central_diff(f, arr[e, k], 1e-7))
            worst = max(worst, simplex_kkt_spread(grads))
    return worst


def _sbm_sweep(st, ll, mask, track):
    """Apply the sbm blocks one at a time (omega row by row) on the mask's
    observed pairs, as an E-step takes them, tracking the bound after each."""
    st.pairs, lists = observed_list(mask), round_lists(mask, ll)
    v = elbo(sbm, st, *lists).total
    st.w = sbm.update_w(st, *own_and_cross(st, ll)); v = track(v, elbo(sbm, st, *lists).total)
    st.gamma = sbm.update_gamma(st); v = track(v, elbo(sbm, st, *lists).total)
    for i in range(st.n_clients):
        om = st.omega.copy(); om[i] = update_omega_row(st, i); st.omega = om
        v = track(v, elbo(sbm, st, *lists).total)
    st.B = sbm.update_block_matrix(st); v = track(v, elbo(sbm, st, *lists).total)


def _mmsbm_sweep(st, ll, mask, track):
    """Apply the mmsbm blocks one at a time, tracking the bound after each."""
    lists = round_lists(mask, ll)
    v = elbo(mmsbm, st, *lists).total
    st.w = mmsbm.update_w(st, *own_and_cross(st, ll)); v = track(v, elbo(mmsbm, st, *lists).total)
    st.gamma = mmsbm.update_gamma(st); v = track(v, elbo(mmsbm, st, *lists).total)
    st.phi_send = mmsbm.update_phi(st, "send"); v = track(v, elbo(mmsbm, st, *lists).total)
    st.phi_recv = mmsbm.update_phi(st, "recv"); v = track(v, elbo(mmsbm, st, *lists).total)
    st.B = mmsbm.update_block_matrix(st); v = track(v, elbo(mmsbm, st, *lists).total)


def test_criterion_1_stationarity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        K = int(rng.choice([3, 6]))
        M = int(rng.choice([1, 2, 3]))
        ll = random_loglik(rng, K)
        mask = full_mask(K)

        # --- SBM: w block, gamma block, per-row membership updates
        st = random_sbm_state(rng, K, M)
        st.w = sbm.update_w(st, *own_and_cross(st, ll))
        for i in range(K):
            for j in range(K):
                if i == j:
                    continue
                def f(v, i=i, j=j):
                    w2 = st.w.copy(); w2[i, j] = v
                    return elbo(sbm, clone_sbm(st, w=w2), *round_lists(mask, ll)).total
                worst = max(worst, abs(central_diff(f, st.w[i, j], 1e-7)))
        st.gamma = sbm.update_gamma(st)
        for i in range(K):
            for g in range(M):
                def f(v, i=i, g=g):
                    g2 = st.gamma.copy(); g2[i, g] = v
                    return elbo(sbm, clone_sbm(st, gamma=g2), *round_lists(mask, ll)).total
                worst = max(worst, abs(central_diff(f, st.gamma[i, g], 1e-6)))
        for i in range(K):
            om = st.omega.copy()
            om[i] = update_omega_row(st, i)
            st.omega = om
            grads = []
            for k in range(M):
                def f(v, i=i, k=k):
                    o2 = st.omega.copy(); o2[i, k] = v
                    return elbo(sbm, clone_sbm(st, omega=o2), *round_lists(mask, ll)).total
                grads.append(central_diff(f, st.omega[i, k], 1e-7))
            worst = max(worst, simplex_kkt_spread(grads))

        # --- attention: posterior rows
        models, ast = random_attention_setup(rng, K)
        ast.pairs = pair_list(mask)
        ast.p = attention.compute_p(models, ast.phi, ast.enc_dims, 1.0, ast.pairs)
        ast.w = attention.update_w(ast, *attention_lists(ast, ll))
        for i in range(K):
            grads = []
            for j in range(K):
                def f(v, i=i, j=j):
                    w2 = ast.w.copy(); w2[i, j] = v
                    return elbo(attention, clone_attention(ast, w=w2), *round_lists(mask, ll)).total
                grads.append(central_diff(f, ast.w[i, j], 1e-7))
            worst = max(worst, simplex_kkt_spread(grads))

        # --- MMSBM: w, gamma, then each pair-membership side
        worst = max(worst, _mmsbm_kkt_residual(random_mmsbm_state(rng, K, M), ll, mask))

    # --- MMSBM under a pruned ring mask: the state holds only the observed
    # pairs, and the blocks and the bound read only those
    for _ in range(MASKED_TRIALS):
        K, M = 6, int(rng.choice([1, 2, 3]))
        mask = pruned_ring(rng, K)
        ll = random_loglik(rng, K)
        worst = max(worst, _mmsbm_kkt_residual(random_mmsbm_state(rng, K, M, mask), ll, mask))

    assert worst < KKT_TOL, f"KKT residual {worst:.2e} >= {KKT_TOL}"
    _report(1, "stationarity suite", f"max KKT residual {worst:.2e} < {KKT_TOL}",
            time.perf_counter() - t0, 30)


def test_criterion_2_elbo_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_drop = 0.0

    def track(value, new):
        nonlocal worst_drop
        worst_drop = min(worst_drop, new - value)
        return new

    for _ in range(50):  # SBM, from one draw under the full and a random symmetric mask
        K, M = int(rng.choice([3, 6])), int(rng.choice([1, 2, 3]))
        st = random_sbm_state(rng, K, M)
        ll = random_loglik(rng, K)
        for mask in (full_mask(K), random_symmetric_mask(rng, K)):
            _sbm_sweep(clone_sbm(st), ll, mask, track)

    for _ in range(50):  # attention, under the full and a random symmetric mask
        K = int(rng.choice([3, 6]))
        models, ast = random_attention_setup(rng, K)
        ll = random_loglik(rng, K)
        for mask in (full_mask(K), random_symmetric_mask(rng, K)):
            ast.pairs = pair_list(mask)
            ast.p = attention.compute_p(models, ast.phi, ast.enc_dims, 1.0, ast.pairs)
            w = rng.dirichlet(np.ones(K), size=K)
            ast.w = w * mask / (w * mask).sum(axis=1, keepdims=True)
            v = elbo(attention, ast, *round_lists(mask, ll)).total
            ast.w = attention.update_w(ast, *attention_lists(ast, ll))
            track(v, elbo(attention, ast, *round_lists(mask, ll)).total)

    for _ in range(50):  # MMSBM
        K, M = int(rng.choice([3, 6])), int(rng.choice([1, 2, 3]))
        st = random_mmsbm_state(rng, K, M)
        ll = random_loglik(rng, K)
        _mmsbm_sweep(st, ll, full_mask(K), track)

    for _ in range(MASKED_TRIALS):  # MMSBM under a pruned ring mask
        K, M = 6, int(rng.choice([1, 2, 3]))
        mask = pruned_ring(rng, K)
        st = random_mmsbm_state(rng, K, M, mask)
        ll = random_loglik(rng, K)
        _mmsbm_sweep(st, ll, mask, track)

    assert worst_drop > MONO_TOL, f"lower bound decreased by {-worst_drop:.2e}"
    _report(2, "ELBO monotonicity", f"worst change {worst_drop:+.2e} > {MONO_TOL}",
            time.perf_counter() - t0, 30)


def test_criterion_3_dpsgd_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(5):
        K = 5
        arch = ArchSpec("softmax-regression", 3, 2)
        models = [LocalModel(rng.standard_normal(arch.n_params), arch) for _ in range(K)]
        models = client_store(models, [tiny_dataset(rng, 6, 3, 2) for _ in range(K)])
        train = models.train
        mask = build_topology("fully-connected", K)
        w = dirac.metropolis_weights(mask)
        state = DiracState(w)
        ref = np.stack([m.theta for m in models])
        cfg = ExperimentConfig(prior_kind="dirac", eta1=0.1, local_steps=1)
        for r in range(10):
            rounds.run_round(state, models, mask, r, cfg)
        # independent simulator of the reference algorithm
        for _ in range(10):
            grads = np.stack([grad(LocalModel(ref[i], arch), train[i]) for i in range(K)])
            ref = w @ ref - 0.1 * grads
        worst = max(worst, max(np.abs(models[i].theta - ref[i]).max() for i in range(K)))
    assert worst < DPSGD_TOL, f"trajectory deviation {worst:.2e}"
    _report(3, "D-PSGD equivalence", f"max |dtheta| {worst:.2e} < {DPSGD_TOL}",
            time.perf_counter() - t0, 5)


def test_criterion_4_gradient_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_model = 0.0
    for kind in ("softmax-regression", "mlp-1hidden"):
        for _ in range(20):
            arch = ArchSpec(kind, d=4, C=3, h=5 if kind == "mlp-1hidden" else 0)
            model = LocalModel(0.6 * rng.standard_normal(arch.n_params), arch)
            data = tiny_dataset(rng, 10, 4, 3)
            g = grad(model, data)
            for t in rng.choice(len(g), size=8, replace=False):
                def f(v, t=t):
                    th = model.theta.copy(); th[t] = v
                    return loss(LocalModel(th, arch, model.init_theta), data)
                num = central_diff(f, model.theta[t], 1e-5)
                worst_model = max(worst_model, abs(num - g[t]) / max(1e-8, abs(num)))

    worst_phi = 0.0
    worst_coupling = 0.0
    for _ in range(20):
        K = 4
        models, st = random_attention_setup(rng, K)
        ll = random_loglik(rng, K)
        mask = full_mask(K)
        st.p = attention.compute_p(models, st.phi, st.enc_dims, 1.0, st.pairs)
        st.w = attention.update_w(st, *attention_lists(st, ll))

        g = attention.phi_gradient(st, models)
        def phi_obj(phi):
            p = attention.compute_p(models, phi, st.enc_dims, st.tau_softmax, st.pairs)
            return float((np.take(st.w, st.pairs) * np.log(np.maximum(p, PROB_FLOOR))).sum())
        for t in rng.choice(len(g), size=6, replace=False):
            def f(v, t=t):
                p2 = st.phi.copy(); p2[t] = v
                return phi_obj(p2)
            num = central_diff(f, st.phi[t], 1e-6)
            worst_phi = max(worst_phi, abs(num - g[t]) / max(1e-8, abs(num)))

        terms = attention.coupling_descent_terms(models, st, mask)
        i = int(rng.integers(K))
        def row_obj(theta_i):
            ms = client_store(models)
            ms.theta[i] = theta_i
            p = pair_matrix(K, st.pairs, attention.compute_p(ms, st.phi, st.enc_dims, st.tau_softmax, st.pairs))
            return float((st.w[i] * np.log(np.maximum(p[i], PROB_FLOOR))).sum())
        for t in range(len(models[i].theta)):
            def f(v, t=t):
                th = models[i].theta.copy(); th[t] = v
                return row_obj(th)
            num = central_diff(f, models[i].theta[t], 1e-6)
            worst_coupling = max(worst_coupling, abs(num - (-terms[i][t])) / max(1e-8, abs(num)))

    for name, value in (("model", worst_model), ("phi", worst_phi), ("coupling", worst_coupling)):
        assert value < GRAD_TOL, f"{name} gradient rel. error {value:.2e}"
    _report(4, "gradient oracles",
            f"rel. err model {worst_model:.1e}, phi {worst_phi:.1e}, coupling {worst_coupling:.1e} < {GRAD_TOL}",
            time.perf_counter() - t0, 20)


def test_criterion_5_graph_recovery():
    t0 = time.perf_counter()
    details = []
    for prior in ("sbm", "attention"):
        for seed in BENCHMARK_SEEDS:
            cfg = benchmark_config(prior, seed)
            report = bench_report(prior, seed)
            l1 = [r["l1_to_ground_truth"] for r in report.rounds]
            ratio = l1[-1] / l1[0]
            assert ratio < 0.5, f"{prior} seed {seed}: l1 ratio {ratio:.2f}"
            # block-diagonal mass of the final graph
            assignment, _, _ = build_tasks(cfg)
            # final reporting graph is deterministic: re-derive from the run
            # (cached report rounds carry the metric; re-run to get the graph)
            mass = _final_block_mass(prior, seed)
            assert mass > 0.8, f"{prior} seed {seed}: block mass {mass:.2f}"
            details.append(f"{prior}/{seed}: ratio {ratio:.2f}, mass {mass:.2f}")
    _report(5, "graph recovery", "; ".join(details), time.perf_counter() - t0, 120)


_GRAPH_CACHE = {}


def block_diagonal_mass(w, group_labels):
    """Average within-group share of each row of the row-normalized graph."""
    w = np.asarray(w, dtype=float)
    wn = w / w.sum(axis=1, keepdims=True)
    same = group_labels[:, None] == group_labels[None, :]
    return float(wn[same].sum() / len(w))


def _final_block_mass(prior, seed):
    key = (prior, seed)
    if key not in _GRAPH_CACHE:
        import tempfile
        from pathlib import Path

        cfg = benchmark_config(prior, seed).replace(snapshot_every=30)
        with tempfile.TemporaryDirectory() as td:
            run_experiment(cfg, td)
            w = np.loadtxt(Path(td) / "w_round_0030.csv", delimiter=",")
        assignment, _, _ = build_tasks(cfg)
        _GRAPH_CACHE[key] = block_diagonal_mass(w, assignment.group_labels)
    return _GRAPH_CACHE[key]


def test_criterion_6_personalization_gain():
    t0 = time.perf_counter()
    means = {}
    for prior in ("local-only", "dirac", "sbm", "attention"):
        means[prior] = float(np.mean([bench_report(prior, s).final_mean_acc for s in BENCHMARK_SEEDS]))
    for prior in ("sbm", "attention"):
        assert means[prior] >= means["local-only"] + 0.02, (
            f"{prior} {means[prior]:.4f} < local {means['local-only']:.4f} + 2pts"
        )
        assert means[prior] >= means["dirac"], f"{prior} below the gossip baseline"
    _report(
        6, "personalization gain",
        f"local {means['local-only']:.4f}, dpsgd {means['dirac']:.4f}, "
        f"sbm {means['sbm']:.4f}, attention {means['attention']:.4f}",
        time.perf_counter() - t0, 180,
    )


def test_criterion_7_taylor_mode_soundness():
    t0 = time.perf_counter()
    diffs = []
    for seed in BENCHMARK_SEEDS:
        l1_cross = bench_report("sbm", seed, CROSS_GRADIENT).rounds[-1]["l1_to_ground_truth"]
        l1_taylor = bench_report("sbm", seed, TAYLOR_APPROX).rounds[-1]["l1_to_ground_truth"]
        diffs.append(abs(l1_cross - l1_taylor))
        assert diffs[-1] <= 0.15, f"seed {seed}: |l1 gap| {diffs[-1]:.3f} > 0.15"

    # bit-identity when all models are forcibly equal
    rng = np.random.default_rng(707)
    arch = ArchSpec("softmax-regression", 3, 2)
    theta = rng.standard_normal(arch.n_params)
    train = [tiny_dataset(rng, 6, 3, 2) for _ in range(4)]
    w = rng.uniform(0.1, 0.9, (4, 4))
    from scool.em.theta import cooperative_sgd_steps

    mc = client_store([LocalModel(theta.copy(), arch) for _ in range(4)], train)
    mt = client_store([LocalModel(theta.copy(), arch) for _ in range(4)], train)
    cooperative_sgd_steps(mc, mc.train, w, 0.01, 0.1, 1, CROSS_GRADIENT, full_mask(4), pair_list(full_mask(4)))
    cooperative_sgd_steps(mt, mt.train, w, 0.01, 0.1, 1, TAYLOR_APPROX, full_mask(4), pair_list(full_mask(4)))
    bitgap = max(np.abs(a.theta - b.theta).max() for a, b in zip(mc, mt))
    assert bitgap < 1e-12
    _report(7, "taylor-mode soundness",
            f"l1 gaps {['%.3f' % d for d in diffs]} <= 0.15; equal-theta gap {bitgap:.1e}",
            time.perf_counter() - t0, 120)


def test_criterion_8_communication_accounting():
    t0 = time.perf_counter()
    # exact closed forms on the three topologies
    for kind, kwargs in [
        ("fully-connected", {}),
        ("group-ring", dict(k0=8)),
        ("generalized-bipartite", dict(degree=3, seed=2)),
    ]:
        mask = build_topology(kind, 12, **kwargs)
        E = directed_edges(mask)
        for mode, sweeps in ((CROSS_GRADIENT, 2), (TAYLOR_APPROX, 2)):
            rec = account_exchange(mask, mode, sweeps, 18)
            if mode == CROSS_GRADIENT:
                assert rec.vector_units_folded == 2 * sweeps * E + E / 18
                assert rec.vector_units_separate == 2 * sweeps * E + E + E / 18
            else:
                assert rec.vector_units_folded == sweeps * E + E + E / 18
            assert rec.scalars_sent == E

    # traffic drop after one-shot pruning equals the exact edge ratio
    cfg = benchmark_config("sbm", 0).replace(
        rounds=14, sparsify_keep_fraction=0.2, sparsify_round=10,
        test_samples_per_client=50,
    )
    report = run_experiment(cfg)
    before = report.rounds[9]  # 1-based round 10: last full round
    after = report.rounds[10]
    K, s = cfg.K, cfg.local_steps
    e_before = K * (K - 1)
    e_after = K * int(np.ceil(0.2 * (K - 1)))
    dim = 18  # softmax-regression(8, 2)
    # every traffic component is exactly the closed form in its edge count,
    # so the per-round drop is exactly the masked-edge ratio
    for row, E in ((before, e_before), (after, e_after)):
        assert row["models_sent"] == s * E
        assert row["gradients_sent"] == s * E
        assert row["scalars_sent"] == E
        assert row["vector_units_folded"] == 2 * s * E + E / dim
    assert before["models_sent"] * e_after == after["models_sent"] * e_before
    _report(8, "communication accounting",
            f"closed forms exact; pruning ratio {e_before}/{e_after} exact",
            time.perf_counter() - t0, 5)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = benchmark_config("sbm", 1).replace(rounds=8, snapshot_every=4)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    compared = []
    for f in sorted((tmp_path / "a").iterdir()):
        if f.name == "timing.json":  # the only volatile artifact by design
            continue
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name
        compared.append(f.name)
    assert "report.json" in compared and "metrics.csv" in compared
    assert any(name.startswith("w_round_") for name in compared)
    _report(9, "determinism", f"byte-identical: {', '.join(compared)}",
            time.perf_counter() - t0, 60)
