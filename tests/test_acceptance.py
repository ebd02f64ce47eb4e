"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute. The end-to-end criteria share one full run of the
synthetic fixture (10 assets, 30 daily windows, 6 specs) executed twice
through the CLI for the determinism check.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from oracles import central_difference_grads, max_relative_error, mi_bits_oracle, rwr_oracle
from leadlag_fuse import neural
from leadlag_fuse.cli import EXIT_OK, main
from leadlag_fuse.diffusion import RwrConfig, ppmi, rwr_accumulate, rwr_steps
from leadlag_fuse.fusion import FusionArchitecture, FusionModel, TrainingSettings, train
from leadlag_fuse.infotheory import (
    DiscreteSeries,
    MiTestConfig,
    discretize_equal_frequency,
    gamma_cdf,
    gamma_quantile,
    mutual_information_bits,
    significance_threshold,
)
from leadlag_fuse.leadlag import LagSpec, build_graph, count_validated_links, lagged_mi_matrix, validate_links
from leadlag_fuse.market_data import log_returns, resample
from leadlag_fuse.pipeline import (
    RunConfig,
    _slice_window,
    cosine_similarity,
    pca_project,
    similarity_matrix,
    symmetric_eigh_jacobi,
)
from leadlag_fuse.fusion import EmbeddingFrame
from leadlag_fuse.synthetic import SyntheticSpec, synthetic_panel


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number:02d}] {name}: {status} ({detail})")


@pytest.fixture(scope="session")
def fixture_run(tmp_path_factory):
    """Synthetic fixture run twice end to end through the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    config_path = root / "config.json"
    config_path.write_text(json.dumps({"schema_version": 1}))  # paper defaults throughout
    assert main(["--config", str(config_path), "--out", str(root / "run1"), "--quiet", "synth"]) == EXIT_OK
    started = time.perf_counter()
    assert main(["--config", str(config_path), "--out", str(root / "run1"), "--quiet", "run-all"]) == EXIT_OK
    elapsed_first = time.perf_counter() - started
    assert main(["--config", str(config_path), "--out", str(root / "run2"), "--quiet", "run-all"]) == EXIT_OK
    return {"root": root, "run1": root / "run1", "run2": root / "run2", "elapsed": elapsed_first}


def test_crit_01_mi_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(8, 257))
        xs = rng.integers(0, 4, n)
        ys = rng.integers(0, 4, n)
        ours = mutual_information_bits(DiscreteSeries(xs, 4), DiscreteSeries(ys, 4))
        worst = max(worst, abs(ours - mi_bits_oracle(xs.tolist(), ys.tolist(), 4, 4)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    report_line(1, "mi-oracle-equivalence", ok, f"max abs diff {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_crit_02_self_information():
    worst = 0.0
    for n in (8, 100, 256):
        x = discretize_equal_frequency(np.random.default_rng(n).standard_normal(n), 4)
        worst = max(worst, abs(mutual_information_bits(x, x) - 2.0))
    ok = worst <= 1e-12
    report_line(2, "self-information-2-bits", ok, f"max |MI - 2| = {worst:.2e}")
    assert ok


def test_crit_03_null_calibration():
    started = time.perf_counter()
    n_samples, trials = 1440, 2000
    thresholds = {
        0.05: significance_threshold(MiTestConfig(4, 4, n_samples, 0.05, 1)),
        0.01: significance_threshold(MiTestConfig(4, 4, n_samples, 0.01, 1)),
    }
    rng = np.random.default_rng(20240817)
    rejections = {0.05: 0, 0.01: 0}
    for _ in range(trials):
        x = DiscreteSeries(rng.integers(0, 4, n_samples), 4)
        y = DiscreteSeries(rng.integers(0, 4, n_samples), 4)
        mi = mutual_information_bits(x, y)
        for level, threshold in thresholds.items():
            rejections[level] += mi > threshold
    rate05 = rejections[0.05] / trials
    rate01 = rejections[0.01] / trials
    elapsed = time.perf_counter() - started
    ok = 0.03 <= rate05 <= 0.07 and 0.005 <= rate01 <= 0.02 and elapsed < 120.0
    report_line(3, "null-calibration", ok, f"rate@0.05={rate05:.4f}, rate@0.01={rate01:.4f}, {elapsed:.1f}s")
    assert 0.03 <= rate05 <= 0.07
    assert 0.005 <= rate01 <= 0.02
    assert elapsed < 120.0


def test_crit_04_gamma_quantile():
    worst_exp = 0.0
    for beta in (0.5, 1.0, 2.0):
        for q in (0.05, 0.5, 0.95, 0.999):
            worst_exp = max(worst_exp, abs(gamma_quantile(q, 1.0, beta) - (-beta * math.log1p(-q))))
    alpha, beta = 2.5, 0.7
    worst_rt = 0.0
    for x in np.logspace(-3, 1.0, 50):
        q = gamma_cdf(float(x), alpha, beta)
        worst_rt = max(worst_rt, abs(gamma_quantile(q, alpha, beta) - float(x)))
    ok = worst_exp <= 1e-9 and worst_rt <= 1e-8
    report_line(4, "gamma-quantile", ok, f"closed-form err {worst_exp:.2e}, round-trip err {worst_rt:.2e}")
    assert worst_exp <= 1e-9
    assert worst_rt <= 1e-8


def test_crit_05_paper_constants():
    n = 69
    cfg = MiTestConfig(states_x=4, states_y=4, sample_size=1440, uncorrected_p=0.01, num_tests=n * n)
    corrected_ok = cfg.corrected_p == 0.01 / 4761
    rng = np.random.default_rng(55)
    returns = make_returns_matrix(rng.standard_normal((1440, 3)))
    sizes = []
    thresholds = []
    for lag in (0, 1, 2):
        graph = build_graph(returns, LagSpec(1, lag), int(returns.timestamps[-1]), 0.01)
        sizes.append(graph.sample_size)
        thresholds.append(graph.threshold_bits)
    sizes_ok = sizes == [1440, 1439, 1438]
    thresholds_ok = all(np.isfinite(t) and t > 0 for t in thresholds)
    ok = corrected_ok and sizes_ok and thresholds_ok
    report_line(5, "paper-constants", ok, f"corrected={cfg.corrected_p:.3e}, N per lag={sizes}")
    assert corrected_ok
    assert sizes_ok
    assert thresholds_ok


def make_returns_matrix(values):
    from leadlag_fuse.market_data import MS_PER_MINUTE, ReturnMatrix

    values = np.asarray(values, dtype=float)
    ts = 1_609_459_200_000 + MS_PER_MINUTE * np.arange(1, values.shape[0] + 1)
    assets = tuple(f"A{i:02d}" for i in range(values.shape[1]))
    return ReturnMatrix(1, ts, assets, values)


def test_crit_06_planted_lag_detection():
    started = time.perf_counter()
    panel = synthetic_panel(SyntheticSpec(), seed=7)  # 10 assets, 30 windows, lag-1 coupling 0.8
    config = RunConfig()
    returns_1m = log_returns(panel)
    returns_5m = log_returns(resample(panel, 5))
    ends = []
    ts = returns_1m.timestamps
    days = ts // 86_400_000
    boundaries = np.nonzero(np.diff(days) != 0)[0]
    for idx in list(boundaries) + [ts.size - 1]:
        if idx + 1 >= 1440:
            ends.append(int(ts[idx]))
    detections = 0
    false_positives = 0
    for end in ends:
        window_1m = _slice_window(returns_1m, end, 1440)
        validated = validate_links(
            lagged_mi_matrix(window_1m, 1, 4), significance_threshold(MiTestConfig(4, 4, 1439, 0.01, 100))
        )
        detections += validated[0, 1] > 0.0
        for returns, rows, lag in ((returns_1m, 1440, 2), (returns_5m, 288, 2)):
            window = _slice_window(returns, end, rows)
            threshold = significance_threshold(MiTestConfig(4, 4, rows - lag, 0.01, 100))
            v = validate_links(lagged_mi_matrix(window, lag, 4), threshold)
            false_positives += count_validated_links(v)
    rate = detections / len(ends)
    fp_mean = false_positives / len(ends)
    elapsed = time.perf_counter() - started
    ok = len(ends) == 30 and rate >= 0.90 and fp_mean <= 0.1 and elapsed < 180.0
    report_line(
        6,
        "planted-lag-detection",
        ok,
        f"detected {detections}/{len(ends)} windows, mean FP@lag>=2 {fp_mean:.3f}, {elapsed:.1f}s",
    )
    assert len(ends) == 30
    assert rate >= 0.90
    assert fp_mean <= 0.1
    assert elapsed < 180.0


def test_crit_07_rwr_invariants():
    ring = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    cfg = RwrConfig(0.8, 3)
    worst_step = 0.0
    for p in rwr_steps(ring, cfg):
        worst_step = max(worst_step, float(np.abs(p.sum(axis=1) - 1.0).max()))
    v = rwr_accumulate(ring, cfg)
    worst_rows = float(np.abs(v.sum(axis=1) - cfg.steps).max())
    worst_oracle = float(np.abs(v - rwr_oracle(ring, 0.8, 3)).max())
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        adjacency = (rng.random((n, n)) > 0.5).astype(int)
        adjacency = np.maximum(adjacency, adjacency.T)
        np.fill_diagonal(adjacency, 0)
        isolated = adjacency.sum(axis=1) == 0
        adjacency[isolated, isolated] = 1
        steps = int(rng.integers(1, 6))
        keep = float(rng.uniform(0.0, 0.99))
        for p in rwr_steps(adjacency, RwrConfig(keep, steps)):
            worst_step = max(worst_step, float(np.abs(p.sum(axis=1) - 1.0).max()))
        acc = rwr_accumulate(adjacency, RwrConfig(keep, steps))
        worst_rows = max(worst_rows, float(np.abs(acc.sum(axis=1) - steps).max()))
    ok = worst_step <= 1e-12 and worst_rows <= 1e-9 and worst_oracle <= 1e-12
    report_line(
        7, "rwr-invariants", ok,
        f"step-sum err {worst_step:.1e}, row-sum err {worst_rows:.1e}, ring oracle err {worst_oracle:.1e}",
    )
    assert worst_step <= 1e-12
    assert worst_rows <= 1e-9
    assert worst_oracle <= 1e-12


def test_crit_08_ppmi():
    uniform = np.full((6, 6), 3.0 / 6.0)
    uniform_ok = bool(np.all(ppmi(uniform) == 0.0))
    rng = np.random.default_rng(88)
    worst = 0.0
    nonneg = True
    for _ in range(100):
        n = int(rng.integers(2, 10))
        raw = rng.random((n, n)) + 0.01
        v = raw / raw.sum(axis=1, keepdims=True) * 3.0
        ours = ppmi(v)
        nonneg = nonneg and bool(np.all(ours >= 0.0))
        normalized = v / v.sum()
        px = normalized.sum(axis=1, keepdims=True)
        py = normalized.sum(axis=0, keepdims=True)
        reference = np.maximum(0.0, np.log(normalized / (px * py)))
        worst = max(worst, float(np.abs(ours - reference).max()))
    ok = uniform_ok and worst <= 1e-12 and nonneg
    report_line(8, "ppmi", ok, f"uniform zero: {uniform_ok}, two-form err {worst:.1e}, nonneg: {nonneg}")
    assert uniform_ok
    assert worst <= 1e-12
    assert nonneg


def test_crit_09_fusion_gradient_check():
    arch = FusionArchitecture(graph_count=2, input_dim=5, per_graph_dims=(4, 3), shared_dims=(4,), embedding_dim=3)
    model = FusionModel(arch, seed=0)
    rng = np.random.default_rng(1000)
    model.params += 0.05 * rng.standard_normal(model.params.size)
    rows = np.stack([rng.random((2, 5)) + 0.05 for _ in range(3)], axis=1)  # graph-major

    enc = neural.forward(model.graph_encoder, rows)
    concat = np.concatenate(list(enc.output), axis=1)[np.newaxis]
    ser = neural.forward(model.shared_encoder, concat)
    sdr = neural.forward(model.shared_decoder, ser.output)
    chunks = np.stack(np.split(sdr.output[0], 2, axis=1))
    dec = neural.forward(model.graph_decoder, chunks)
    min_pre = min(float(np.abs(z).min()) for r in (enc, ser, sdr, dec) for z in r.pre_activations)
    kink_free = min_pre > 1e-6

    _, grad = model.loss_and_gradients(rows)
    numeric = central_difference_grads(lambda: model.reconstruction_loss(rows), [model.params], h=1e-5)
    worst = max_relative_error([grad], numeric, floor=1e-8)
    ok = kink_free and worst < 1e-4
    report_line(9, "fusion-gradient-check", ok, f"min |preact| {min_pre:.1e}, max rel err {worst:.2e}")
    assert kink_free
    assert worst < 1e-4


def test_crit_10_overfit_capacity():
    rng = np.random.default_rng(21)
    arch = FusionArchitecture(graph_count=2, input_dim=6, per_graph_dims=(25, 10), shared_dims=(30,), embedding_dim=15)
    model = FusionModel(arch, seed=3)
    samples = np.stack([rng.random((2, 6)) for _ in range(5)], axis=1)  # graph-major
    report = train(model, samples, 1, TrainingSettings(max_epochs=2000, patience=None, validation_fraction=0.0))
    best = min(report.train_losses)
    first_epoch = next((i + 1 for i, l in enumerate(report.train_losses) if l < 1e-3), None)
    ok = best < 1e-3
    report_line(10, "overfit-capacity", ok, f"min train MSE {best:.2e}, first epoch below 1e-3: {first_epoch}")
    assert ok


def test_crit_11_determinism(fixture_run):
    run1, run2 = fixture_run["run1"], fixture_run["run2"]
    mismatches = []
    for name in ("embeddings.csv", "pca.csv"):
        if (run1 / name).read_bytes() != (run2 / name).read_bytes():
            mismatches.append(name)
    graph_files_1 = sorted((run1 / "graphs").glob("*/*.csv"))
    graph_files_2 = sorted((run2 / "graphs").glob("*/*.csv"))
    if [p.relative_to(run1) for p in graph_files_1] != [p.relative_to(run2) for p in graph_files_2]:
        mismatches.append("graph file sets differ")
    else:
        for a, b in zip(graph_files_1, graph_files_2):
            if a.read_bytes() != b.read_bytes():
                mismatches.append(str(a.relative_to(run1)))
    ok = not mismatches
    report_line(11, "determinism", ok, f"{len(graph_files_1)} graph files byte-identical" if ok else f"mismatches: {mismatches[:3]}")
    assert ok, mismatches


def test_fixture_artifacts_digest(fixture_run):
    """The fixture run's artifacts are byte-identical to the pinned digest.

    Same recipe as ``digest_tree`` in ``perfbench/run.py``: files sorted by
    path, each hashed as relative POSIX path, NUL, bytes, NUL, with
    ``report.json`` (timings) skipped. The value is specific to numpy 2.4.6
    with scipy-openblas 0.3.31; another BLAS or numpy may round the matrix
    products differently. A change that is meant to alter the artifacts
    updates the value and says why. The second digest also leaves out the
    graph index ``graphs.json``, whose ``threshold_bits`` records the
    threshold to its last bit, so it pins the edge lists and everything
    built from them whatever the last bits of the threshold solve. The third
    pins ``panel.csv`` and the edge lists alone, the graph stage's output.

    The first two changed when training moved to the distinct sample rows,
    weighted by their counts (the same objective, other rounding), which
    changes the last bits of ``model.json``, ``embeddings.csv``, ``pca.csv``
    and ``similarity/``, and when ``graphs.json`` began to record the
    settings that built the graphs. The third did not change. They changed
    again when ``ingest`` began to cache the panel as ``panel.npy`` and its
    index ``panel.json``; the digests that leave out those two files pin
    every other file, and they equal the two digests from before that change.
    """
    run1 = fixture_run["run1"]
    files = sorted(p for p in run1.rglob("*") if p.is_file())
    assert len(files) == 233

    def digest(paths):
        sha = hashlib.sha256()
        for path in paths:
            sha.update(path.relative_to(run1).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
        return sha.hexdigest()

    hashed = [p for p in files if p.relative_to(run1).as_posix() != "report.json"]
    assert digest(hashed) == "feefdfd31c3b616be74c06105d04e82dc4d11763858c6fbcdf8a1f7edd93ddaf"
    without_index = [p for p in hashed if p.relative_to(run1).as_posix() != "graphs.json"]
    assert len(without_index) == 231
    assert digest(without_index) == "0fc87b7c19549b5de32744c8837998f35dea3c1ffe8cb484f25701050cdd2823"
    without_panel_cache = [p for p in hashed if p.relative_to(run1).as_posix() not in ("panel.npy", "panel.json")]
    assert len(without_panel_cache) == 230
    assert digest(without_panel_cache) == "c1772db97672534c51ffd95dbf89c077109eab1681b2623c2160000ae9f5dc11"
    without_both = [p for p in without_index if p in without_panel_cache]
    assert len(without_both) == 229
    assert digest(without_both) == "6325408cc9be7ee7b2e24aa2d42ef082b9b844a7db97425d9ffaeb1947a934bd"
    graph_stage = [p for p in files if p.name == "panel.csv" or p.parent.parent.name == "graphs"]
    assert len(graph_stage) == 181
    assert digest(graph_stage) == "a62d5ef9dfc7e3aa1d7874336633438fd2b6fba9bf85d018fad5c2d26d37e8b5"


def test_crit_12_pca():
    theta = 0.3
    rotation = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    eigenvalues = np.array([4.0, 1.0, 0.25])
    cov = rotation @ np.diag(eigenvalues) @ rotation.T
    values, vectors = symmetric_eigh_jacobi(cov)
    value_err = float(np.abs(values - eigenvalues).max())
    vector_err = max(
        min(float(np.abs(vectors[:, j] - rotation[:, j]).max()), float(np.abs(vectors[:, j] + rotation[:, j]).max()))
        for j in range(3)
    )
    rng = np.random.default_rng(1212)
    frame = EmbeddingFrame(
        universe=tuple(f"A{i}" for i in range(40)),
        window_ends=(0,),
        vectors=(rng.standard_normal((40, 15)) * np.linspace(3.0, 0.1, 15))[np.newaxis],
    )
    projection = pca_project(frame, 2)
    orth_err = float(np.abs(projection.components @ projection.components.T - np.eye(2)).max())
    ordered = bool(np.all(np.diff(projection.explained_variance) <= 1e-12))
    ok = value_err <= 1e-9 and vector_err <= 1e-9 and orth_err <= 1e-10 and ordered
    report_line(
        12, "pca", ok,
        f"analytic eig err {value_err:.1e}/{vector_err:.1e}, orth err {orth_err:.1e}, ordered: {ordered}",
    )
    assert value_err <= 1e-9
    assert vector_err <= 1e-9
    assert orth_err <= 1e-10
    assert ordered


def test_crit_13_cosine_similarity():
    rng = np.random.default_rng(1313)
    z = rng.standard_normal(15)
    identity_ok = cosine_similarity(z, z) == 1.0
    opposite_ok = cosine_similarity(z, -z) == -1.0
    worst_scale = 0.0
    for _ in range(100):
        zi, zj = rng.standard_normal(15), rng.standard_normal(15)
        a, b = float(rng.uniform(0.01, 100.0)), float(rng.uniform(0.01, 100.0))
        worst_scale = max(worst_scale, abs(cosine_similarity(a * zi, b * zj) - cosine_similarity(zi, zj)))
    frame = EmbeddingFrame(
        universe=tuple(f"A{i}" for i in range(6)),
        window_ends=(0,),
        vectors=rng.standard_normal((1, 6, 15)),
    )
    matrix = similarity_matrix(frame, 0)
    symmetric = bool(np.array_equal(matrix, matrix.T))
    ok = identity_ok and opposite_ok and worst_scale <= 1e-12 and symmetric
    report_line(
        13, "cosine-similarity", ok,
        f"S(z,z)=1: {identity_ok}, S(z,-z)=-1: {opposite_ok}, scale err {worst_scale:.1e}, symmetric: {symmetric}",
    )
    assert identity_ok
    assert opposite_ok
    assert worst_scale <= 1e-12
    assert symmetric


def test_crit_14_end_to_end_run(fixture_run):
    run1 = fixture_run["run1"]
    elapsed = fixture_run["elapsed"]
    spec_dirs = sorted(p.name for p in (run1 / "graphs").iterdir())
    layout_ok = (
        spec_dirs == ["d1_T0", "d1_T1", "d1_T2", "d5_T0", "d5_T1", "d5_T2"]
        and all(len(list((run1 / "graphs" / d).glob("*.csv"))) == 30 for d in spec_dirs)
        and (run1 / "embeddings.csv").exists()
        and (run1 / "pca.csv").exists()
        and len(list((run1 / "similarity").glob("*.csv"))) == 45
        and (run1 / "report.json").exists()
    )
    report = json.loads((run1 / "report.json").read_text())
    link_counts = report["graphs"]["link_counts"]
    table_ok = set(link_counts) == set(spec_dirs) and all(
        set(entry["summary"]) == {"min", "q25", "median", "q75", "max"} and len(entry["per_date"]) == 30
        for entry in link_counts.values()
    )
    embeddings = (run1 / "embeddings.csv").read_text().splitlines()
    rows_ok = len(embeddings) == 1 + 10 * 30 and embeddings[0].startswith("asset,window_end,z0")
    ok = elapsed < 600.0 and layout_ok and table_ok and rows_ok
    report_line(
        14, "end-to-end-run", ok,
        f"{elapsed:.1f}s, layout: {layout_ok}, link-count table: {table_ok}, rows: {rows_ok}",
    )
    assert elapsed < 600.0
    assert layout_ok
    assert table_ok
    assert rows_ok
