"""Offline benchmark of the tokscope CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stream-metrics --seed 1 --seconds 20 --trace 0

With --trace 0 the workload's commands run one after another, each in a
fresh process, in passes until --seconds seconds and at least MIN_PASSES
passes are measured. run_s sums each command's median wall time over the
passes; peak_rss_mb and setup_s are medians over passes and set-ups. With --trace 1 the workload makes one pass without tracing and
then every workload's commands are replayed in-process through the
program's public functions under a span tracer, giving the per-layer
metrics. Every command's output is checked against the benchmark's own
oracle; a wrong output or a nonzero exit counts as failed. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. A longer report (machine facts, input summary and
hash, every command, the span tree) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import regex
import scipy

import gen
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
MIN_PASSES = 3  # so that a median ignores one disturbed pass
SETUP_MIN_S = 1.0  # cheap set-ups repeat until this much time is measured
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 150  # a hung command is killed and counted as failed
LAUNCH_CODE = "import sys; from tokscope.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.unattributed_s": "s",
    "corpus_io.load_token_stream_s": "s",
    "corpus_io.parse_tokens_per_s": "tokens/s",
    "corpus_io.load_corpus_s": "s",
    "zipf_metrics.count_frequencies_s": "s",
    "zipf_metrics.rank_frequency_curve_s": "s",
    "zipf_metrics.zipf_fit_s": "s",
    "zipf_metrics.auc_s": "s",
    "zipf_metrics.power_law_deviation_s": "s",
    "zipf_metrics.metric_vector_s": "s",
    "zipf_metrics.tokens": "count",
    "zipf_metrics.types": "count",
    "bpe.load_bpe_s": "s",
    "bpe.pretokenize_s": "s",
    "bpe.encode_fresh_s": "s",
    "bpe.encode_warm_s": "s",
    "bpe.pieces": "count",
    "bpe.distinct_pieces": "count",
    "bpe.memo_hit_ratio": "ratio",
    "predictor.build_pairwise_dataset_s": "s",
    "predictor.fit.logistic_s": "s",
    "predictor.fit.linear-svm_s": "s",
    "predictor.fit.rbf-svm_s": "s",
    "predictor.loto.logistic_s": "s",
    "predictor.loto.linear-svm_s": "s",
    "predictor.loto.rbf-svm_s": "s",
    "predictor.lolo_s": "s",
    "predictor.examples": "count",
    "ranking.fit_bradley_terry_s": "s",
    "ranking.bt_sweeps": "count",
    "ranking.evaluate_ranking_s": "s",
    "stats.kendall_s": "s",
}


@dataclass
class Result:
    label: str
    wall: float
    rss_mb: float
    code: int
    stderr: str


@dataclass
class Pass:
    wall: float
    results: list[Result]

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.results)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("TOKSCOPE_SEED", None)  # it would override the commands' --seed
    return env


def launch(label: str, argv: list[str], log: Path, code: str = LAUNCH_CODE) -> Result:
    """Run one child to completion; its peak RSS comes from os.wait4."""
    start = perf_counter()
    with log.open("w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")[-2000:]
    return Result(label, wall, usage.ru_maxrss / 1024, proc.returncode, stderr)


def run_pass(workload, inputs, out: Path) -> Pass:
    out.mkdir(parents=True, exist_ok=True)
    results = []
    start = perf_counter()
    for cmd in workload.commands(inputs, out):
        results.append(launch(cmd.label, cmd.args, out / "stderr.log"))
    return Pass(perf_counter() - start, results)


def file_digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Checker:
    """Checks each command's output: the first one that exits 0 against the
    oracle, later ones for byte-identity with it."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.first: dict[str, tuple[str | None, str | None]] = {}
        self.failures: list[str] = []

    def check(self, n: int, pas: Pass, out: Path) -> None:
        for cmd, res in zip(self.workload.commands(self.inputs, out), pas.results):
            if res.code != 0:
                error = f"exit code {res.code}: {res.stderr.strip()[-300:]}"
            elif cmd.label not in self.first:
                error = self.workload.check(self.inputs, cmd)
                self.first[cmd.label] = (file_digest(cmd.out), error)
            else:
                digest, first_error = self.first[cmd.label]
                error = first_error or (
                    None if file_digest(cmd.out) == digest else "output differs from the first pass"
                )
            if error:
                self.failures.append(f"pass {n} {cmd.label}: {error}")


def setup_inputs(workload, seed: int, work: Path, scale: str):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = perf_counter()
    inputs = workload.setup(np.random.default_rng(seed), work, scale)
    return inputs, perf_counter() - start


def input_facts(workload, inputs, scale: str, base: Path) -> dict:
    files = [(p, str(p.relative_to(base))) for p in inputs.files]
    return {"scale": scale, "summary": workload.summary(inputs), "sha256": gen.content_hash(files)}


def machine_facts(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "regex": regex.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "launcher": f"{Path(sys.executable).name} -c {LAUNCH_CODE!r} <args>, PYTHONPATH=src",
        "rss_method": "ru_maxrss of each command process from os.wait4, KiB / 1024 = MB",
        "system_settings": "none changed; no system-wide tracing; spans only from in-process wrappers",
        "commands_in_parallel": 1,
    }


def timed_run(workload, seed: int, seconds: float, work: Path, scale: str,
              min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        inputs, took = setup_inputs(workload, seed, work / "inputs", scale)
        setup_times.append(took)
    report = {"inputs": {workload.name: input_facts(workload, inputs, scale, work / "inputs")},
              "setup_s": setup_times}
    # Compiles the package's bytecode, which only the first run in a checkout pays.
    launch("warm-up", [], work / "warmup.log", "import tokscope.cli")
    checker, passes = Checker(workload, inputs), []
    while len(passes) < min_passes or sum(p.wall for p in passes) < seconds:
        out = work / f"pass{len(passes)}"
        passes.append(run_pass(workload, inputs, out))
        checker.check(len(passes) - 1, passes[-1], out)
        if len(passes) > 1:
            shutil.rmtree(out)
    # Each command takes its median over passes, so one disturbed command in
    # one pass does not move run_s.
    medians = {r.label: statistics.median(p.results[i].wall for p in passes)
               for i, r in enumerate(passes[0].results)}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": sum(medians.values()),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    report["passes"] = [{"wall_s": p.wall, "commands": [vars(r) for r in p.results]} for p in passes]
    report["command_median_s"] = medians
    report["figures"] = workload.figures(inputs, medians)
    report["failures"] = checker.failures
    attempted = sum(len(p.results) for p in passes)
    report["failed_frac"] = len(checker.failures) / attempted
    return result(metrics, END_TO_END, attempted, len(checker.failures)), report


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    names = ("cli", "corpus_io", "zipf_metrics", "bpe", "predictor", "ranking", "stats")
    return argparse.Namespace(**{n: importlib.import_module(f"tokscope.{n}") for n in names})


def traced_run(workload, seed: int, work: Path, scale: str, out_dir: Path, stem: str) -> tuple[dict, dict]:
    """One timed pass of `workload`, then a traced replay of every workload.

    The workload itself is replayed at `scale`; the others at their tiny
    size, so that every per-layer metric is reported on every workload.
    """
    inputs = {}
    for wl in WORKLOADS.values():
        wl_scale = scale if wl is workload else "tiny"
        inputs[wl.name] = (setup_inputs(wl, seed, work / "inputs" / wl.name, wl_scale)[0], wl_scale)
    report = {"inputs": {n: input_facts(WORKLOADS[n], i, s, work / "inputs" / n) for n, (i, s) in inputs.items()}}
    launch("warm-up", [], work / "warmup.log", "import tokscope.cli")
    probe = "import time; t = time.perf_counter(); import tokscope.cli; print(time.perf_counter() - t)"
    import_times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True)
        import_times.append(float(proc.stdout))
    own = inputs[workload.name][0]
    pas = run_pass(workload, own, work / "pass0")
    checker = Checker(workload, own)
    checker.check(0, pas, work / "pass0")
    failures, attempted = list(checker.failures), len(pas.results)

    tk = import_program()
    metrics = {"cli.import_s": statistics.median(import_times)}
    report["trace"] = {}
    for wl in WORKLOADS.values():
        tracer = spans.Tracer()
        failures += wl.replay(inputs[wl.name][0], tracer, tk)
        roots = [s for s in tracer.spans if s[4] is None and s[1].startswith("cmd ")]
        attempted += len(roots)
        metrics.update(wl.layer_metrics(tracer))
        if wl is workload:
            replayed = sum(map(tracer.duration, roots))
            metrics["cli.unattributed_s"] = pas.wall - replayed - len(pas.results) * metrics["cli.import_s"]
        tracer.write(out_dir / f"{stem}-spans-{wl.name}.jsonl.gz")
        report["trace"][wl.name] = {"scale": inputs[wl.name][1], "tree": tracer.tree()}
    report.update(timed_pass={"wall_s": pas.wall, "commands": [vars(r) for r in pas.results]},
                  import_s=import_times, failures=failures, failed_frac=len(failures) / attempted)
    return result(metrics, PER_LAYER, attempted, len(failures)), report


def result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tokscope" / "cli.py").is_file():
        print(f"perfbench: no tokscope sources at {ROOT / 'src' / 'tokscope'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / "work" / f"{stem}-{os.getpid()}"
    try:
        if args.trace:
            res, report = traced_run(workload, args.seed, work, "full", out_dir, stem)
        else:
            res, report = timed_run(workload, args.seed, args.seconds, work, "full")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"workload": args.workload, "machine": machine_facts(args.seed),
              **report, "result": res}
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print_report(report)
    print(json.dumps(res))
    return 0


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"# perfbench {report['workload']} seed {m['seed']}: {m['nproc']} cpu {m['cpu_model']}, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, regex {m['regex']}")
    print(f"# launcher: {m['launcher']}; rss: {m['rss_method']}; {m['system_settings']}")
    for name, f in report["inputs"].items():
        summary = {k: v for k, v in f["summary"].items() if not k.startswith("per_")}
        print(f"# inputs {name} ({f['scale']}): {json.dumps(summary)} sha256 {f['sha256'][:16]}")
    for name, trace in report.get("trace", {}).items():
        print(f"# span tree {name} ({trace['scale']}), total / self seconds:")
        for node in trace["tree"]:
            if node["total_s"] >= 0.01:
                print(f"#   {node['path']}  x{node['calls']}  {node['total_s']:.4f} / {node['self_s']:.4f}")
    for key, value in report.get("figures", {}).items():
        print(f"# {key} = {value:.6g}")
    print(f"# failed_frac = {report['failed_frac']:.6g}")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    for name, metric in report["result"]["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
