#!/usr/bin/env python3
"""Repository benchmark: full encode -> decode -> verify -> echo stacks.

Run from the repository root:

    python3 perfbench/run.py --workload stack-linear --seed 1 --seconds 25 --trace 0

It builds the library and the harness in perfbench/harness.cpp from source
(Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload, checks
the outputs, prints every metric with its unit, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones (from one extra traced pass; the Chrome trace and the per-layer JSON
land in .bench_out/). The exit code is non-zero when any check fails.

    python3 perfbench/run.py --selftest     # tiny n, all workloads, seconds
    python3 perfbench/run.py --write-pins   # re-pin the seed-1 fingerprints

See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
PINS_PATH = os.path.join(HERE, "pins.json")
WORKLOADS = ["stack-linear", "stack-linear-mt", "stack-ball", "campaign-faulted"]
DEFAULT_SEED = 1  # the seed the fingerprints in pins.json are pinned at


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the harness; returns its path."""
    bdir = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "lad_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(bdir, "lad_perfbench")


def run_harness(exe, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns the harness's raw record."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d%s%s" % (workload, seed, "-tiny" if tiny else "", "-trace" if trace else "")
    raw = os.path.join(OUT_DIR, tag + ".raw.json")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", work, "--out", raw]
    if tiny:
        cmd.append("--tiny")
    if subprocess.run(cmd).returncode != 0:
        raise SystemExit("perfbench: harness failed on " + workload)
    with open(raw) as f:
        return json.load(f), os.path.join(OUT_DIR, tag)


# ---------------------------------------------------------------------------
# Correctness gate


def pin_key(item):
    return item["pipeline"] + "|" + item["spec"]


def gate(doc, pins):
    """Returns (attempted, failures): one attempt per item run, and one
    message per failed item run (a pin mismatch fails the reference run)."""
    failures = {}
    ref = doc["reference"]["items"]
    runs = [("reference", doc["reference"])] + [("pass %d" % i, p) for i, p in
                                                enumerate(doc["passes"])]
    if "traced" in doc:
        runs.append(("traced", doc["traced"]))
    attempted = 0
    for label, run in runs:
        for i, it in enumerate(run["items"]):
            attempted += 1
            if it["error"]:
                failures[(label, i)] = it["error"]
            elif it["fingerprint"] != ref[i]["fingerprint"]:
                failures[(label, i)] = "fingerprint %s differs from the serial reference %s" % (
                    it["fingerprint"], ref[i]["fingerprint"])
    for i, item in enumerate(doc["items"]):
        pin = pins.get(pin_key(item))
        if pin is None:
            if doc["seed"] == DEFAULT_SEED:
                failures[("reference", i)] = "no pin at the default seed"
            continue
        got = {"graph_digest": item["graph_digest"], "fingerprint": ref[i]["fingerprint"]}
        for field in ("graph_digest", "fingerprint"):
            if got[field] != pin[field]:
                failures[("reference", i)] = "%s %s != pinned %s" % (field, got[field],
                                                                     pin[field])
    return attempted, ["%s %s: %s" % (label, pin_key(doc["items"][i]), msg)
                       for (label, i), msg in failures.items()]


# ---------------------------------------------------------------------------
# Metrics


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[1], q[2]


def headline(metric, values):
    """The reported value of an end-to-end metric. setup_s is the median of
    the set-ups. A per-pass timing is its best pass: host contention only
    ever slows a pass, and on a shared machine the best pass varied about
    half as much between runs as the median did."""
    if metric["name"] == "setup_s":
        return statistics.median(values)
    return max(values) if metric["better"] == "higher" else min(values)


def end_to_end(doc):
    """Name -> list of samples (one per pass or set-up) or a single value."""
    passes = doc["passes"]
    ref = doc["reference"]["items"]

    def per_pass(fn):
        return [fn(p) for p in passes]

    def stage(*keys):
        return per_pass(lambda p: sum(it[k] for it in p["items"] for k in keys))

    return {
        "setup_s": [sum(s.values()) for s in doc["setups"]],
        "nodes_per_s": per_pass(lambda p: sum(it["nodes"] for it in p["items"]) / p["wall_s"]),
        "encode_s": stage("encode_s"),
        "decode_s": stage("decode_s"),
        "verify_s": stage("verify_s"),
        "echo_s": stage("digests_s", "echo_s"),
        "peak_rss_mb": [doc["peak_rss_mb"]],
        "bits_per_node": [sum(it["advice_bits"] for it in ref) / sum(it["n"] for it in ref)],
        "decode_rounds": [sum(it["rounds"] for it in ref)],
    }


def per_layer(doc):
    layers = dict(doc["layers"])
    for key, name in (("gen_s", "gen_ms"), ("write_s", "ladg_write_ms"),
                      ("read_s", "ladg_read_ms"), ("build_s", "csr_build_ms")):
        layers["graph." + name] = statistics.median(s[key] for s in doc["setups"]) * 1e3
    return layers


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(doc, trace, spec, pins, out_tag):
    """Prints the metric table; returns the result object."""
    attempted, failures = gate(doc, pins)
    prov = doc["provenance"]
    log("perfbench %s seed=%d %s" % (doc["workload"], doc["seed"], json.dumps(prov)))
    for item in doc["items"]:
        log("  item %-15s %s graph_digest=%s" % (item["pipeline"], item["spec"],
                                                  item["graph_digest"]))
    samples = end_to_end(doc)
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            vals = samples[m["name"]]
            q1, med, q3 = quartiles(vals)
            metrics[m["name"]] = {"value": headline(m, vals), "unit": m["unit"]}
            print("%-14s %14.6g %-8s median=%.6g q1=%.6g q3=%.6g samples=%d" %
                  (m["name"], metrics[m["name"]]["value"], m["unit"], med, q1, q3, len(vals)))
        print("%-14s %14.6g %-8s (%d of %d item runs failed)" %
              ("failed_frac", len(failures) / attempted, "ratio", len(failures), attempted))
    else:
        layers = per_layer(doc)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
            print("%-38s %14.6g %s" % (m["name"], layers[m["name"]], m["unit"]))
        with open(out_tag + ".layers.json", "w") as f:
            json.dump({"workload": doc["workload"], "seed": doc["seed"], "provenance": prov,
                       "items": doc["items"], "layers": layers}, f, indent=1, sort_keys=True)
        log("chrome trace: %s.raw.json.trace.json" % out_tag)
    for msg in failures:
        log("FAIL " + msg)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    with open(out_tag + ".result.json", "w") as f:
        json.dump({"provenance": prov, "seed": doc["seed"], "items": doc["items"],
                   "samples": samples, "failures": failures, "result": result}, f, indent=1)
    return result


def load_pins():
    with open(PINS_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Self-test and pinning


def selftest(exe, spec):
    pins = load_pins()
    problems = []
    fingerprints = {}
    for w in WORKLOADS:
        doc, tag = run_harness(exe, w, DEFAULT_SEED, 0.2, True, tiny=True)
        fingerprints[w] = [it["fingerprint"] for it in doc["reference"]["items"]]
        for trace in (False, True):
            result = report(doc, trace, spec, pins, tag)
            if not result["correct"]:
                problems.append("%s: gate failed on honest output" % w)
            want = spec["per_layer" if trace else "end_to_end"]
            for m in want:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append("%s: metric %s missing or malformed" % (w, m["name"]))
        # The gate must fire on a tampered pin, on either field.
        item = doc["items"][0]
        for field in ("fingerprint", "graph_digest"):
            bad = json.loads(json.dumps(pins))
            old = bad[pin_key(item)][field]
            bad[pin_key(item)][field] = ("0" if old[0] != "0" else "1") + old[1:]
            if not gate(doc, bad)[1]:
                problems.append("%s: gate did not fire on a tampered %s pin" % (w, field))
    if fingerprints["stack-linear"] != fingerprints["stack-linear-mt"]:
        problems.append("stack-linear-mt fingerprints differ from stack-linear")
    for p in problems:
        log("SELFTEST FAIL " + p)
    log("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def write_pins(exe):
    pins = {}
    for tiny in (True, False):
        for w in WORKLOADS:
            doc, _ = run_harness(exe, w, DEFAULT_SEED, 0, False, tiny=tiny)
            for item, it in zip(doc["items"], doc["reference"]["items"]):
                if it["error"]:
                    raise SystemExit("cannot pin %s: %s" % (pin_key(item), it["error"]))
                pins[pin_key(item)] = {"graph_digest": item["graph_digest"],
                                       "fingerprint": it["fingerprint"]}
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %d pins to %s" % (len(pins), PINS_PATH))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.write_pins):
        ap.error("one of --workload, --selftest, --write-pins is required")
    spec = load_benchmark()
    exe = build()
    if args.selftest:
        return selftest(exe, spec)
    if args.write_pins:
        return write_pins(exe)
    correct = True
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        doc, tag = run_harness(exe, w, args.seed, args.seconds, args.trace == 1)
        result = report(doc, args.trace == 1, spec, load_pins(), tag)
        print(json.dumps(result))
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
