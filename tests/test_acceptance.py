"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Statistical criteria run on synthetic corpora with planted ground truth;
numeric criteria check closed forms, an independent brute-force EM
oracle, finite differences, and exact arithmetic.  Run with

    pytest tests/test_acceptance.py -v

Each test prints "ACCEPTANCE <n> <name>: PASS" on success (visible with
-s or on failure).
"""

import dataclasses
import time

import numpy as np
import pytest

from blogfluence import analysis, artifacts, cli
from blogfluence.cli import main
from blogfluence.factor import (
    BloggerGraph,
    InfluenceTensor,
    fit_iolap,
    fit_pcl,
    fit_pcldc,
    topic_factors_from_model,
)
from blogfluence.pipeline import PipelineConfig, recommendation_recall, run_detection
from blogfluence.synth import SynthConfig, generate
from blogfluence.topics import fit_plsa

from conftest import (
    CoinSeries, TermVector, doc_term, load_script, pcldc_content_gradient, pcldc_objective,
    random_topics, z_test,
)

N_SEEDS = 20
SECONDS_PER_DETECTION_SEED = 120.0
SECONDS_PER_BENCHMARK_SEED = 300.0


def _ok(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def _monotone(trace, tol=1e-9):
    trace = np.asarray(trace)
    return bool(np.all(np.diff(trace) >= -tol * np.abs(trace[:-1])))


def _detection_config(rho, seed):
    return SynthConfig(
        n_bloggers=260,
        n_days=20,
        posts_per_blogger_rate=1.05,
        reads_per_post_rate=5.0,
        copy_prob=rho,
        copy_fraction=0.45,
        vocab_size=400,
        tokens_per_post=40,
        seed=seed,
    )


@pytest.fixture(scope="module")
def null_runs():
    runs = []
    for seed in range(N_SEEDS):
        start = time.perf_counter()
        corpus, _ = generate(_detection_config(0.0, seed))
        result = run_detection(corpus, vocab_max_size=400, seed=seed)
        runs.append(
            {
                "n_posts": len(corpus.posts),
                "report": result.forward_report,
                "elapsed": time.perf_counter() - start,
            }
        )
    return runs


@pytest.fixture(scope="module")
def planted_runs():
    runs = []
    for seed in range(N_SEEDS):
        start = time.perf_counter()
        corpus, truth = generate(_detection_config(0.3, seed))
        result = run_detection(corpus, vocab_max_size=400, seed=seed)
        runs.append(
            {
                "seed": seed,
                "truth": truth.influence_pairs,
                "result": result,
                "elapsed": time.perf_counter() - start,
            }
        )
    return runs


def test_c01_null_calibration(null_runs):
    available = exceed = 0
    for run in null_runs:
        assert run["n_posts"] >= 5000
        assert run["elapsed"] < SECONDS_PER_DETECTION_SEED
        for bucket in run["report"].available():
            available += 1
            exceed += abs(bucket.z) > 2.576
    assert available > 0
    assert exceed / available <= 0.05
    _ok(1, f"null calibration ({exceed}/{available} buckets exceed)")


def test_c02_planted_influence_detection(planted_runs):
    forward_hits = reversed_hits = 0
    for run in planted_runs:
        assert run["elapsed"] < SECONDS_PER_DETECTION_SEED
        forward_hits += run["result"].forward_report.buckets[0].z > 2.326
        reversed_hits += run["result"].reversed_report.buckets[0].z > 2.326
    assert forward_hits >= 18, f"forward hour-1 significant in only {forward_hits}/20 seeds"
    assert reversed_hits >= 18, f"reversed hour-1 significant in only {reversed_hits}/20 seeds"
    _ok(2, f"planted detection (forward {forward_hits}/20, reversed {reversed_hits}/20)")


def test_c03_extraction_beats_random_half_baseline(planted_runs):
    for run in planted_runs:
        truth = run["truth"]
        implicit_pairs = [(l.q, l.p) for l in run["result"].implicit.links]
        extracted = {(l.q, l.p) for l in run["result"].influence.links}
        rng = np.random.default_rng([run["seed"], 99])
        half_idx = rng.choice(len(implicit_pairs), size=len(implicit_pairs) // 2, replace=False)
        baseline = {implicit_pairs[i] for i in half_idx}

        def precision_recall(predicted):
            true_positives = len(predicted & truth)
            return true_positives / len(predicted), true_positives / len(truth)

        precision, recall = precision_recall(extracted)
        base_precision, base_recall = precision_recall(baseline)
        assert precision > 1.5 * base_precision
        assert recall > 1.5 * base_recall
    _ok(3, "extraction precision/recall beat 1.5x random-half baseline in all 20 runs")


def test_c04_z_arithmetic():
    coins = [(1, True)] * 5100 + [(1, False)] * 4900
    report = z_test([CoinSeries("anchor", coins, 0.5)])
    assert report.buckets[0].z == pytest.approx(2.0004, abs=1e-3)
    _ok(4, f"z arithmetic (z = {report.buckets[0].z:.6f})")


def _tiny_doc_term(seed=0, n_docs=30):
    rng = np.random.default_rng(seed)
    docs = {}
    for d in range(n_docs):
        grp = d % 2
        counts = {}
        for _ in range(25):
            w = int(rng.integers(0, 4)) + grp * 4
            counts[w] = counts.get(w, 0) + 1
        docs[f"d{d:02d}"] = TermVector(counts, 25)
    return doc_term(docs, 8)


def _random_tensor(seed, b=4, v=5, nnz=14):
    rng = np.random.default_rng(seed)
    keys = set()
    while len(keys) < nnz:
        i, j = int(rng.integers(b)), int(rng.integers(b))
        if i != j:
            keys.add((i, j, int(rng.integers(v))))
    keys = sorted(keys)
    return InfluenceTensor(
        bloggers=[f"u{i}" for i in range(b)],
        n_terms=v,
        influenced=np.array([k[0] for k in keys]),
        influencer=np.array([k[1] for k in keys]),
        term=np.array([k[2] for k in keys]),
        counts=rng.integers(1, 9, size=len(keys)).astype(float),
    )


def _planted_graph(seed, n_per=8):
    rng = np.random.default_rng(seed)
    nodes = [f"n{i:02d}" for i in range(2 * n_per)]
    edges = {}
    for a in range(2 * n_per):
        for b in range(2 * n_per):
            if a == b:
                continue
            same = (a < n_per) == (b < n_per)
            if rng.random() < (0.7 if same else 0.3):
                edges[(nodes[a], nodes[b])] = float(rng.integers(4, 9) if same else 1.0)
    graph = BloggerGraph.from_edge_weights(edges)
    content = np.zeros((graph.n_nodes, 6))
    for i, node in enumerate(graph.nodes):
        block = 0 if int(node[1:]) < n_per else 3
        content[i, block : block + 3] = rng.dirichlet(np.ones(3))
    return graph, content


def test_c05_em_monotonicity(recommendation_runs):
    checked = 0
    for seed in range(3):
        plsa = fit_plsa(_tiny_doc_term(seed), 2, [f"w{i}" for i in range(8)], max_iter=80,
                        seed=seed)
        assert _monotone(plsa.loglik_trace)
        iolap = fit_iolap(_random_tensor(seed + 1), 2, 2, random_topics(seed + 1, 5, 2),
                          max_iter=80, seed=seed)
        assert _monotone(iolap.loglik_trace)
        graph, content = _planted_graph(seed, n_per=4)
        pcl = fit_pcl(graph, 2, max_iter=60, seed=seed)
        assert _monotone(pcl.objective_trace)
        pcldc = fit_pcldc(graph, content, 2, [f"w{i}" for i in range(6)], max_iter=30,
                          seed=seed)
        assert _monotone(pcldc.objective_trace)
        checked += 4
    for run in recommendation_runs:
        for trace in run["traces"]:
            assert _monotone(trace)
            checked += 1
    _ok(5, f"EM monotonicity ({checked} objective traces)")


def test_c06_rank_one_closed_forms():
    tensor, topics = _random_tensor(3), random_topics(3, 5, 1)
    model = fit_iolap(tensor, 1, 1, topics, max_iter=5, seed=0)
    total = tensor.counts.sum()
    for factors, idx in ((model.influenced_factors, tensor.influenced),
                         (model.influencer_factors, tensor.influencer)):
        marginal = np.bincount(idx, weights=tensor.counts, minlength=4) / total
        assert np.abs(factors[:, 0] - marginal).max() <= 1e-10
    assert np.array_equal(model.topic_factors, topic_factors_from_model(topics))

    vecs = {"d1": TermVector({0: 2, 1: 1}, 3), "d2": TermVector({1: 3, 2: 1}, 4)}
    plsa = fit_plsa(doc_term(vecs, 3), 1, ["w0", "w1", "w2"], max_iter=10, seed=0)
    expected = np.array([2.0, 4.0, 1.0]) / 7.0
    assert np.abs(plsa.p_w_given_t[0] - expected).max() <= 1e-10
    _ok(6, "rank-1 closed forms reproduce mode marginals and term frequencies")


def _oracle_em(dense, z, n_i, n_j, seed, iters=4000, tol=1e-13):
    """Independent dense-tensor EM with the keyword factor ``z`` held, used
    only as an oracle."""
    rng = np.random.default_rng(seed)
    b1, b2, _ = dense.shape
    n_k = z.shape[1]
    core = rng.dirichlet(np.ones(n_i * n_j * n_k)).reshape(n_i, n_j, n_k)
    x = rng.dirichlet(np.ones(b1), size=n_i).T
    y = rng.dirichlet(np.ones(b2), size=n_j).T
    mask = dense > 0
    prev = None
    loglik = -np.inf
    for _ in range(iters):
        prob = np.einsum("abc,ia,jb,kc->ijk", core, x, y, z)
        loglik = float((dense[mask] * np.log(prob[mask])).sum())
        weight = np.where(mask, dense / np.maximum(prob, 1e-300), 0.0)
        core_new = core * np.einsum("ijk,ia,jb,kc->abc", weight, x, y, z)
        core_new /= core_new.sum()
        x_new = x * np.einsum("ijk,ajk->ia", weight, np.einsum("abc,jb,kc->ajk", core, y, z))
        y_new = y * np.einsum("ijk,bik->jb", weight, np.einsum("abc,ia,kc->bik", core, x, z))
        x = x_new / x_new.sum(axis=0, keepdims=True)
        y = y_new / y_new.sum(axis=0, keepdims=True)
        core = core_new
        if prev is not None and abs(loglik - prev) <= tol * abs(prev):
            break
        prev = loglik
    return loglik


def test_c07_small_instance_matches_restart_oracle():
    rng = np.random.default_rng(42)
    dense = np.zeros((3, 3, 4))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            same = (i < 2) == (j < 2)
            for k in range(4):
                rate = (6 if same else 1) * (3 if (k < 2) == (i < 2) else 1)
                dense[i, j, k] = rng.poisson(rate)
    keys = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(4)
        if i != j and dense[i, j, k] > 0
    ]
    tensor = InfluenceTensor(
        bloggers=["u0", "u1", "u2"],
        n_terms=4,
        influenced=np.array([a for a, _, _ in keys]),
        influencer=np.array([b for _, b, _ in keys]),
        term=np.array([c for _, _, c in keys]),
        counts=np.array([float(dense[key]) for key in keys]),
    )
    topics = random_topics(42, 4, 2)
    z = topic_factors_from_model(topics)
    oracle_best = max(_oracle_em(dense, z, 2, 2, seed) for seed in range(100))
    ours = max(
        fit_iolap(tensor, 2, 2, topics, max_iter=4000, tol=1e-13, seed=seed).loglik_trace[-1]
        for seed in range(20)
    )
    assert ours >= oracle_best - 1e-6, f"fit {ours} vs oracle {oracle_best}"
    _ok(7, f"small-instance loglik within 1e-6 of 100-restart oracle (gap {oracle_best - ours:.2e})")


def test_c08_content_gradient_matches_finite_differences():
    graph, content = _planted_graph(2, n_per=3)  # 6-node planted instance
    rng = np.random.default_rng(1)
    weights = 0.3 * rng.standard_normal((6, 2))
    popularity = rng.uniform(0.5, 2.0, size=graph.n_nodes)
    analytic = pcldc_content_gradient(graph, content, weights, popularity)
    numeric = np.zeros_like(weights)
    step = 1e-6
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            up, down = weights.copy(), weights.copy()
            up[i, j] += step
            down[i, j] -= step
            numeric[i, j] = (
                pcldc_objective(graph, content, up, popularity)
                - pcldc_objective(graph, content, down, popularity)
            ) / (2 * step)
    rel = np.linalg.norm(analytic - numeric) / max(
        np.linalg.norm(analytic), np.linalg.norm(numeric)
    )
    assert rel < 1e-4
    _ok(8, f"content gradient matches finite differences (rel err {rel:.2e})")


def test_c09_idr_exact_values():
    def ranking(names):
        return [(name, 1.0) for name in names]

    same = [ranking([f"b{i}" for i in range(10)])] * 50
    assert analysis.idr(same, 10) == 0.0
    disjoint = [ranking([f"b{t}_{i}" for i in range(10)]) for t in range(50)]
    assert analysis.idr(disjoint, 10) == 1.0
    half = [ranking([f"c{i}" for i in range(10)])]
    for t in range(1, 50):
        half.append(ranking([f"c{i}" for i in range(5)] + [f"t{t}_{i}" for i in range(5)]))
    assert analysis.idr(half, 10) == 0.5
    _ok(9, "influence diversity ratio hits 0, 1, and 0.5 exactly")


# c10's run: the planted-expert corpus and the settings of its model stages,
# defined once in the recommendation benchmark script.
_recommendation_config = load_script("run_recommend_benchmark").recommendation_config


@pytest.fixture(scope="module")
def recommendation_runs():
    """Member-specific planted experts, detected in memory and then fitted
    as the CLI's ``topics`` through ``eval`` would fit them at
    ``_recommendation_config``: PLSA over every influence link's posts,
    the other models on the training edges of the edge-holdout split, one
    seeded fit each.
    """
    runs = []
    for seed in range(5):
        start = time.perf_counter()
        cfg = _recommendation_config(seed)
        corpus, _ = generate(cfg.synth)
        result = run_detection(corpus, vocab_max_size=cfg.vocab_max_size, seed=seed)
        recall, traces = recommendation_recall(result, cfg)
        runs.append(
            {
                "seed": seed,
                "recall": recall,
                "elapsed": time.perf_counter() - start,
                "traces": traces,
            }
        )
    return runs


def test_c10_recommendation_ordering(recommendation_runs):
    personalized_wins = content_wins = 0
    for run in recommendation_runs:
        assert run["elapsed"] < SECONDS_PER_BENCHMARK_SEED
        r = run["recall"]
        personalized_wins += r["iolap"] > r["tg"]
        content_wins += r["pcldc"] > r["pcl"]
    table = " | ".join(
        f"seed {run['seed']}: " + " ".join(f"{k}={v:.3f}" for k, v in run["recall"].items())
        for run in recommendation_runs
    )
    assert personalized_wins >= 4, table
    assert content_wins >= 4, table
    _ok(10, f"recall@10 ordering (iolap>tg {personalized_wins}/5, pcldc>pcl {content_wins}/5)")


def _config_text(cfg):
    """``cfg`` as a config file: a line per key that differs from its default."""
    default = PipelineConfig()
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in dataclasses.fields(cfg)
             if f.name not in ("out_dir", "seed", "synth")
             and getattr(cfg, f.name) != getattr(default, f.name)]
    lines += [f"synth.{f.name} = {getattr(cfg.synth, f.name)}"
              for f in dataclasses.fields(cfg.synth)
              if f.name != "seed" and getattr(cfg.synth, f.name) != getattr(default.synth, f.name)]
    return "\n".join(lines) + "\n"


def test_recommendation_recall_is_the_cli_run(recommendation_runs, tmp_path):
    """c10's in-memory recall at seed 1 is the recall@10 that the CLI's
    stages write to recall.tsv under the same config."""
    cfg = _recommendation_config(1)
    config = tmp_path / "c10.cfg"
    config.write_text(_config_text(cfg))
    out = tmp_path / "out"
    for stage in PIPELINE_STAGES[:PIPELINE_STAGES.index("eval") + 1]:
        assert main([stage, "--config", str(config), "--out-dir", str(out), "--seed", "1"]) == 0
    method, n, recall = artifacts.read_columns(out / "recall.tsv", (str, int, float),
                                               ("method", "N", "recall"))
    written = {m: r for m, k, r in zip(method.values(), n.tolist(), recall.tolist()) if k == 10}
    assert written == recommendation_runs[1]["recall"]


PIPELINE_CONFIG = """
window_hours = 12
tau_hours = 2
vocab_max_size = 160
n_topics = 2
rank_influenced = 2
rank_influencer = 3
top_n = 5
plsa_max_iter = 60
iolap_max_iter = 60
pcldc_max_iter = 20
pcl_max_iter = 60
synth.n_bloggers = 60
synth.n_days = 10
synth.vocab_size = 160
synth.n_topics = 2
synth.posts_per_blogger_rate = 1.0
synth.reads_per_post_rate = 5.0
synth.copy_prob = 0.6
synth.copy_fraction = 0.45
"""

# The full run in pipeline order; recommend answers one query.
PIPELINE_STAGES = [name for name in cli.STAGES if name != "recommend"]


def test_c11_full_pipeline_byte_reproducible(tmp_path):
    config = tmp_path / "pipeline.cfg"
    config.write_text(PIPELINE_CONFIG)
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in dirs:
        for stage in PIPELINE_STAGES:
            code = main(
                [stage, "--config", str(config), "--out-dir", str(out), "--seed", "17"]
            )
            assert code == 0, f"{stage} failed in {out}"
    files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), str(rel)
    _ok(11, f"byte-identical pipeline reruns ({len(files_a)} artifacts)")
