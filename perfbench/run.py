#!/usr/bin/env python3
"""End-to-end benchmark of the lazyetl warehouse: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench_driver (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), generates the
seeded repository once per (layout, seed) and reuses it, runs the workload
and prints its metrics. The last stdout line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
metric names and units are checked against BENCHMARK.json. Exits non-zero
without a result when the build, generation or run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEEP_REPOS = 6  # generated repositories kept for reuse (most recent first)
# A run may take its --seconds plus this long for set-ups, warm-up,
# validation and repository generation.
RUN_MARGIN_S = 130


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_digest(paths):
    """Digest of the given files and of every file under the given dirs."""
    files = []
    for top in paths:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    h = hashlib.sha256()
    for p in files:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest([os.path.join(ROOT, "src")])


def ensure_repo(bdir, driver, seed):
    # The key covers the layout code, so a layout change regenerates.
    layout = source_digest([os.path.join(HERE, "driver", "repo.cc"),
                            os.path.join(HERE, "driver", "repo.h")])
    repos = os.path.join(bdir, "repos")
    os.makedirs(repos, exist_ok=True)
    root = os.path.join(repos, "repo-%s-%d" % (layout, seed))
    if subprocess.run([driver, "--generate", "--repo", root, "--seed",
                       str(seed)], stdout=sys.stderr).returncode != 0:
        return None
    os.utime(root + ".complete")
    stamps = sorted((n for n in os.listdir(repos) if n.endswith(".complete")),
                    key=lambda n: os.path.getmtime(os.path.join(repos, n)),
                    reverse=True)
    for old in stamps[KEEP_REPOS:]:
        os.remove(os.path.join(repos, old))
        shutil.rmtree(os.path.join(repos, old[:-len(".complete")]),
                      ignore_errors=True)
    # Flush generation and pruning now, so their writeback does not land in
    # the timed phase.
    os.sync()
    return root


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        missing = {m["name"] for m in want} - set(got)
        extra = set(got) - {m["name"] for m in want}
        return "metric names differ (missing %s, extra %s)" % (
            sorted(missing), sorted(extra))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            return "unit of %s differs" % m["name"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed phase (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]
                              ).returncode

    # Workloads BENCHMARK.json does not gate run the same way; perfbench_driver
    # rejects unknown names.
    spec = load_spec()
    seconds = (spec["run_seconds"] if args.seconds is None else args.seconds)
    if not args.workload:
        log("--workload is required")
        return 2
    if args.seed < 0 or seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    driver = os.path.join(bdir, "perfbench_driver")
    start = time.monotonic()
    repo = ensure_repo(bdir, driver, args.seed)
    if repo is None:
        log("repository generation failed")
        return 1
    work = os.path.join(bdir, "work-%d" % os.getpid())
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--repo", repo, "--work", work, "--commit", commit_id()]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(10, seconds + RUN_MARGIN_S -
                                         (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out.stdout)
        log("driver failed (exit %d)" % out.returncode)
        return 1
    problem = check_result(lines[-1], spec, args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(problem)
        return 1
    sys.stdout.write(out.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
