"""The benchmark's workloads.

Each workload turns the benchmark seed into its inputs, runs one pass of
timed units through the package's public entry points, and checks the
outputs.  ``detect`` runs ``synth.generate`` + ``pipeline.run_detection``
per seed in memory; ``pipeline`` and ``pipeline_small`` run the 14 CLI
stages through ``cli.main`` per seed, each stage reading its upstream
artifacts from disk.  A unit is one detection seed or one CLI stage, and
each starts when the previous one ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import re
import shutil
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, process_time

from blogfluence import cli, pipeline, synth

from tracing import STAGES

# The c01/c02 detection scale (tests/test_acceptance.py, _detection_config).
DETECT_SYNTH = synth.SynthConfig(
    n_bloggers=260,
    n_days=20,
    posts_per_blogger_rate=1.05,
    reads_per_post_rate=5.0,
    copy_fraction=0.45,
    vocab_size=400,
    tokens_per_post=40,
)
DETECT_COPY_PROB = (0.0, 0.3)  # null and planted seeds alternate

# The acceptance PIPELINE_CONFIG (tests/test_acceptance.py), copied so that
# the benchmark's scale stays fixed when the tests change.
SMALL_CONFIG = """\
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

# The large config's model shape (2000 terms, 8 topics, rank 8x8) at a
# size one run can repeat, with the acceptance iteration caps.
LARGE_CONFIG = """\
window_hours = 12
tau_hours = 2
vocab_max_size = 1000
n_topics = 8
rank_influenced = 8
rank_influencer = 8
top_n = 10
plsa_max_iter = 60
iolap_max_iter = 60
pcldc_max_iter = 20
pcl_max_iter = 60
synth.n_bloggers = 300
synth.n_days = 20
synth.vocab_size = 1000
synth.n_topics = 8
synth.posts_per_blogger_rate = 1.0
synth.reads_per_post_rate = 5.0
synth.copy_prob = 0.6
synth.copy_fraction = 0.45
"""

NULL_Z = 2.576  # c01: |z| above this in at most 5% of null buckets
NULL_EXCEED_SHARE = 0.05
PLANTED_Z = 2.326  # c02: hour-1 z above this, forward and reversed


@dataclass
class PassResult:
    """One pass over a workload's units."""

    seconds: float = 0.0  # sum of unit wall times
    cpu_seconds: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counters: dict[str, object] = field(default_factory=dict)  # unit -> deterministic outputs
    true_positive: int = 0  # extracted influence links that are planted
    extracted: int = 0
    planted: int = 0
    z1_forward: list[float] = field(default_factory=list)
    z1_reversed: list[float] = field(default_factory=list)
    recall: dict[str, list[float]] = field(default_factory=dict)  # method -> recall@top_n
    artifact_bytes: int = 0
    between: Callable[[int], None] | None = None  # called untimed before unit i

    def time(self, fn):
        """Run one unit from a clean heap; add its wall and CPU time."""
        if self.between:
            self.between(self.attempted)
        gc.collect()
        self.attempted += 1
        cpu = process_time()
        start = perf_counter()
        try:
            return fn()
        finally:
            self.seconds += perf_counter() - start
            self.cpu_seconds += process_time() - cpu


def unit_seeds(seed: int, count: int) -> list[int]:
    return [1000 * seed + i for i in range(count)]


class Detect:
    """In-memory detection: synth.generate + pipeline.run_detection per seed."""

    name = "detect"

    def __init__(self, n_seeds: int = 8, base: synth.SynthConfig = DETECT_SYNTH):
        self.n_seeds = n_seeds
        self.base = base
        self.configs: list[synth.SynthConfig] = []

    def setup(self, work_dir: Path, seed: int) -> None:
        self.configs = [
            replace(self.base, copy_prob=DETECT_COPY_PROB[i % 2], seed=s)
            for i, s in enumerate(unit_seeds(seed, self.n_seeds))
        ]

    @property
    def units_per_pass(self) -> int:
        return self.n_seeds

    def run_pass(self, tracer, between=None) -> PassResult:
        out = PassResult(between=between)
        null_available = null_exceed = 0
        null_units = []
        for cfg in self.configs:
            unit = f"seed {cfg.seed}"

            def run(cfg=cfg):
                corpus, truth = synth.generate(cfg)
                return corpus, truth, pipeline.run_detection(
                    corpus, vocab_max_size=self.base.vocab_size, seed=cfg.seed
                )

            try:
                corpus, truth, result = out.time(run)
            except Exception as exc:  # a failed unit is counted, not fatal
                out.failures.append(f"{unit}: {exc!r}")
                continue
            forward, reversed_ = result.forward_report, result.reversed_report
            extracted = {(l.q, l.p) for l in result.influence.links}
            out.counters[unit] = _digest(
                len(corpus.posts), len(corpus.accesses), len(result.cleaned.accesses),
                len(result.implicit.links), sorted(extracted),
                [(b.n, b.heads, b.z) for b in forward.buckets + reversed_.buckets],
            )
            if cfg.copy_prob == 0.0:
                available = forward.available()
                null_available += len(available)
                null_exceed += sum(abs(b.z) > NULL_Z for b in available)
                null_units.append(unit)
                continue
            z_f, z_r = forward.buckets[0].z, reversed_.buckets[0].z
            out.z1_forward.append(z_f)
            out.z1_reversed.append(z_r)
            if not (z_f > PLANTED_Z and z_r > PLANTED_Z):
                out.failures.append(f"{unit}: planted hour-1 z {z_f:.3f}/{z_r:.3f} <= {PLANTED_Z}")
            out.true_positive += len(extracted & truth.influence_pairs)
            out.extracted += len(extracted)
            out.planted += len(truth.influence_pairs)
        if null_units and not (0 < null_available and null_exceed <= NULL_EXCEED_SHARE * null_available):
            out.failures += [
                f"{u}: {null_exceed}/{null_available} null buckets exceed |z| > {NULL_Z}"
                for u in null_units
            ]
        return out


class CliPipeline:
    """The 14 CLI stages per seed, through cli.main, artifacts on disk."""

    def __init__(self, name: str, config: str, n_seeds: int):
        self.name = name
        self.config = config
        self.n_seeds = n_seeds
        self.top_n = int(re.search(r"^top_n = (\d+)", config, re.M).group(1))
        self.config_path = Path()
        self.out_dirs: list[tuple[int, Path]] = []

    def setup(self, work_dir: Path, seed: int) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = work_dir / f"{self.name}.cfg"
        self.config_path.write_text(self.config, encoding="utf-8")
        self.out_dirs = [(s, work_dir / f"{self.name}-{s}") for s in unit_seeds(seed, self.n_seeds)]
        for _, out in self.out_dirs:
            out.mkdir(exist_ok=True)

    @property
    def units_per_pass(self) -> int:
        return self.n_seeds * len(STAGES)

    def run_pass(self, tracer, between=None) -> PassResult:
        out = PassResult(between=between)
        for seed, out_dir in self.out_dirs:
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir()
            printed = {}
            for stage in STAGES:
                argv = [stage, "--config", str(self.config_path), "--out-dir", str(out_dir),
                        "--seed", str(seed)]
                printed[stage], problem = self._stage(out, tracer, stage, argv)
                problem = problem or self._check(stage, printed[stage], out_dir)
                if problem:
                    out.failures.append(f"seed {seed} {stage}: {problem}")
            self._quality(out, out_dir)
            out.counters[f"seed {seed}"] = _digest(printed, _artifacts_digest(out_dir))
        return out

    @staticmethod
    def _stage(out: PassResult, tracer, stage: str, argv: list[str]) -> tuple[str, str | None]:
        buffer = io.StringIO()

        def run():
            span = tracer.open(f"cli.{stage}") if tracer else None
            try:
                with contextlib.redirect_stdout(buffer):
                    return cli.main(argv)
            finally:
                if tracer:
                    tracer.close(span)

        try:
            code = out.time(run)
        except (Exception, SystemExit) as exc:  # a failed unit is counted, not fatal
            return buffer.getvalue(), repr(exc)
        return buffer.getvalue(), None if code == 0 else f"exit code {code}"

    def _check(self, stage: str, printed: str, out_dir: Path) -> str | None:
        try:
            if stage in ("topics", "iolap", "pcldc", "pcl"):
                found = re.search(r"(?:loglik|objective) (\S+)", printed)
                if not found or not math.isfinite(float(found.group(1))):
                    return f"final objective not finite: {printed.strip()!r}"
            if stage == "eval":
                rows = _rows(out_dir / "recall.tsv")
                if len(rows) != 4 * self.top_n:
                    return f"recall.tsv has {len(rows)} rows, expected {4 * self.top_n}"
                if not all(0.0 <= float(r[2]) <= 1.0 for r in rows):
                    return "recall.tsv value outside [0, 1]"
        except (OSError, IndexError, ValueError) as exc:
            return f"unreadable output: {exc!r}"
        return None

    def _quality(self, out: PassResult, out_dir: Path) -> None:
        try:
            planted = {(r[0], r[1]) for r in _rows(out_dir / "truth.tsv")}
            extracted = {(r[0], r[1]) for r in _rows(out_dir / "influence.tsv")}
            z = [float(_rows(out_dir / f"zreport_{d}.tsv")[0][5]) for d in ("forward", "reversed")]
            recall = {r[0]: float(r[2]) for r in _rows(out_dir / "recall.tsv") if int(r[1]) == self.top_n}
        except (OSError, IndexError, ValueError):
            return  # the failed stage is already counted
        out.true_positive += len(extracted & planted)
        out.extracted += len(extracted)
        out.planted += len(planted)
        for values, value in ((out.z1_forward, z[0]), (out.z1_reversed, z[1])):
            if math.isfinite(value):
                values.append(value)
        for method, value in recall.items():
            out.recall.setdefault(method, []).append(value)
        out.artifact_bytes += sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _rows(path: Path) -> list[list[str]]:
    """Data rows of a TSV artifact: no '#' header, no column-name line."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]
    return lines[1:]


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _artifacts_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def workload(name: str):
    if name == "detect":
        return Detect()
    if name == "pipeline":
        return CliPipeline("pipeline", LARGE_CONFIG, n_seeds=1)
    if name == "pipeline_small":
        return CliPipeline("pipeline_small", SMALL_CONFIG, n_seeds=8)
    raise KeyError(name)
