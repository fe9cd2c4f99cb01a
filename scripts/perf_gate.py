#!/usr/bin/env python3
"""Perf-regression gate for the CI `perf` job.

Usage: perf_gate.py BASELINE.json CURRENT.json [--tolerance 0.25]

BASELINE.json holds one entry per bench under "benches"; the gate
dispatches on CURRENT.json's "bench" field:

bench_batch_inference — batched-inference engine:

* Batching SPEEDUP RATIOS (b8/b1, b32/b1 per metric) are compared against
  the checked-in baseline with the given tolerance and FAIL the gate when
  they regress below baseline * (1 - tolerance). Ratios divide out the
  host's absolute speed, so they are meaningful on any runner generation.

* HARD FLOORS, host-independent by construction: batched inference must
  deliver >= 2x decisions/sec at B=32 vs B=1 on the weight-bound
  evaluation sweep (eval_mlp) and on the trainer's rollout decision point
  (rollout_kernel). The kernel-policy evaluation sweep is exempt — its
  network is already batched over the 128-job window internally, so its
  honest curve is flat (gated only against ratio regression).

bench_sched_scaling — indexed scheduling core on storm backlogs:

* BACKLOG-FLATNESS: per-decision cost from 1k to 64k pending (the n1k/n64k
  decisions-per-sec ratio) must stay within tolerance of the recorded
  baseline ratio for every indexed metric, and under an absolute cap of
  2.5x for the genuinely flat paths (fcfs_plain: pure queue maintenance;
  kernel: inference-dominated decision). fcfs_easy is exempt from the cap:
  deeper storms legitimately backfill more jobs per decision, so its
  honest curve is sublinear-but-not-flat and only the baseline-ratio check
  applies.

* SPEEDUP FLOORS at the 64k backlog, measured in the SAME run against the
  frozen ReferenceEnv (ref_* metrics) so host speed divides out: >= 10x
  decisions/sec on fcfs_plain and fcfs_easy (the seed-core comparison the
  tentpole targets), >= 2x on kernel (where policy inference, not the
  simulator, dominates both cores by design).

* ADVERSARIAL STAIRCASE MIX: fcfs_easy_adv (anticorrelated procs/req_time
  ramps — the shape that degrades a corner-only backfill descent to O(P))
  must stay within a hard 2x of the benign fcfs_easy throughput at the 64k
  backlog, and on RLSCHED_INDEX_STATS builds the measured backfill NODE
  VISITS per query — a pure algorithmic count, host-independent — are
  gated directly: adversarial <= 2x benign at 64k, and both mixes within
  tolerance of the recorded baseline counts.

* EXACT-WINDOW row (exact_w8): the branch-and-bound planner's node budget
  caps per-decision work independent of backlog depth, so its 1k-to-64k
  ratio gates against the recorded baseline ratio. The bench's "optgap"
  self-check block gates HARD within the run: on one storm window the
  admissible bound must sit at or below the PROVED optimum, which must sit
  at or below every greedy heuristic.

* ABSOLUTE decisions/sec and indexed-vs-reference speedups are also
  compared against the baseline but only WARN: hosted CI machines
  legitimately differ by more than any useful tolerance.

bench_table5_bsld / bench_table6_util (--json mode) — optimality-gap study
on standalone contended windows (sched/exact.hpp):

* HARD, host-independent by construction: on every window the admissible
  lower bound must sit at or below the exact objective, and on every
  PROVED window (search exhausted) the exact objective must sit at or
  below every heuristic's greedy objective — the solver's two load-bearing
  contracts, checked within the current run with only round-trip epsilon.

* objective/window/windows/max_nodes are RUN configuration: a mismatch
  with the baseline is a config error and fails hard.

* Proved-window counts, node counts, and per-heuristic average gap ratios
  are compared against the baseline but only WARN: branch-and-bound
  pruning follows floating-point comparisons, so compilers that contract
  differently (-ffp-contract) can legitimately prove a different subset
  within the node budget.

bench_serve_load — multi-tenant session daemon, closed-loop bursts
(in-process and over loopback sockets) plus open-loop Poisson arrivals:

* HARD, host-independent: all three bitwise invariance self-checks must
  pass (batch-B == batch-1 serial; N-dispatcher sharded == single
  dispatcher; socket == in-process), every submitted request must
  complete on every row, and the average observation windows packed per
  batched forward must reach >= batch/2 on every CLOSED-LOOP row — a
  pure algorithmic count proving cross-session batching engages.
  Open-loop rows (ol_*/sock_ol_* prefixes) are exempt from the
  windows/forward floor: Poisson arrivals are sparse by design.

* batch/jobs/dispatchers are RUN configuration (like simd_lanes): a
  mismatch with the baseline is a config error and fails hard.

* Aggregate decisions/sec and p99 latency are compared against the
  baseline but only WARN (absolute host speed; open-loop p99 measures
  queueing delay at the offered rate).

bench_decision_latency — quantized kernel-policy decision path:

* HARD FLOOR: int8 decisions/sec >= 5x float32 at B=32 (same run, same
  host, so machine speed divides out). int8/f32 ratios at B=1 and B=32
  are additionally gated against the baseline with the tolerance band.

* HARD CEILING: a float decision over sparse windows (kernel_f32_sparse,
  a few percent of slots live) costs at most sparse_max_time_ratio (from
  the baseline) of a full-window float decision (kernel_f32) at B=1 and
  B=8, same run. The kernel policy's forward runs over each window's live
  prefix, so a return to full-width scoring shows here. Float-only, so it
  is checked on every host.

* quant_isa is a HOST property (the int8 kernel dispatches on CPUID at
  load): a run whose quant_isa differs from the baseline produces honest
  numbers the floor was never recorded for, so the int8 gates WARN and
  skip rather than failing. simd_lanes/pool_windows are BUILD properties — a
  mismatch there is a config error and fails hard.

Exit status: 0 = gate passed, 1 = regression or floor violation,
2 = usage/config error.
"""

import json
import sys

failures = 0


def fail(msg):
    global failures
    print(f"FAIL: {msg}")
    failures += 1


def warn_absolute(name, base, cur, keys, tolerance):
    for k in keys:
        if cur[k] < base[k] * (1.0 - tolerance):
            print(f"WARN: {name} {k} absolute throughput {cur[k]:.0f}/s is "
                  f"{cur[k] / base[k]:.2f}x the baseline {base[k]:.0f}/s "
                  f"(host difference or real regression — ratios are the "
                  f"gate)")


def check_batch_inference(baseline_doc, current_doc, tolerance):
    # A scalar-fallback build or a resized pool produces numbers the
    # baseline was never recorded for — say so instead of failing with
    # confusing ratios.
    for field in ("simd_lanes", "pool_windows"):
        if baseline_doc.get(field) != current_doc.get(field):
            fail(f"bench config mismatch: {field} is "
                 f"{current_doc.get(field)} here but the baseline was "
                 f"recorded at {baseline_doc.get(field)} — refresh "
                 f"bench/baseline.json for this build configuration")
            return

    floor_metrics = {"eval_mlp": 2.0, "rollout_kernel": 2.0}
    baseline = baseline_doc["metrics"]
    current = current_doc["metrics"]

    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            fail(f"metric '{name}' missing from current run")
            continue

        for hi, lo in (("b8", "b1"), ("b32", "b1")):
            base_ratio = base[hi] / base[lo]
            cur_ratio = cur[hi] / cur[lo]
            floor = base_ratio * (1.0 - tolerance)
            status = "ok" if cur_ratio >= floor else "FAIL"
            print(f"{name:16s} {hi}/{lo} speedup {cur_ratio:7.2f}x "
                  f"(baseline {base_ratio:.2f}x, gate >= {floor:.2f}x) "
                  f"{status}")
            if cur_ratio < floor:
                fail(f"{name} {hi}/{lo} batching speedup regressed: "
                     f"{cur_ratio:.2f}x < {floor:.2f}x")

        warn_absolute(name, base, cur, ("b1", "b8", "b32"), tolerance)

        floor = floor_metrics.get(name)
        if floor is not None:
            got = cur["b32"] / cur["b1"]
            status = "ok" if got >= floor else "FAIL"
            print(f"{name:16s} hard floor: B=32 vs B=1 {got:7.2f}x "
                  f"(required >= {floor:.1f}x) {status}")
            if got < floor:
                fail(f"{name} batched inference floor violated: "
                     f"{got:.2f}x < {floor:.1f}x at B=32 vs B=1")


def check_sched_scaling(baseline_doc, current_doc, tolerance):
    # (indexed metric, its reference twin, 64k speedup floor, flatness cap)
    plan = [
        ("fcfs_plain", "ref_fcfs_plain", 10.0, 2.5),
        ("fcfs_easy", "ref_fcfs_easy", 10.0, None),
        ("kernel", "ref_kernel", 2.0, 2.5),
    ]
    baseline = baseline_doc["metrics"]
    current = current_doc["metrics"]

    for name, ref_name, speed_floor, flat_cap in plan:
        cur = current.get(name)
        cur_ref = current.get(ref_name)
        if cur is None or cur_ref is None:
            fail(f"metric '{name}'/'{ref_name}' missing from current run")
            continue
        base = baseline.get(name)
        base_ref = baseline.get(ref_name)
        if base is None or base_ref is None:
            fail(f"metric '{name}'/'{ref_name}' missing from baseline — "
                 f"refresh bench/baseline.json with the full bench output")
            continue

        # Backlog flatness: per-decision cost at 64k vs 1k == n1k/n64k dps.
        base_flat = base["n1k"] / base["n64k"]
        cur_flat = cur["n1k"] / cur["n64k"]
        limit = base_flat * (1.0 + tolerance)
        if flat_cap is not None:
            limit = min(limit, flat_cap)  # both claims must hold
        status = "ok" if cur_flat <= limit else "FAIL"
        cap_note = f", cap {flat_cap:.1f}x" if flat_cap is not None else ""
        print(f"{name:16s} 64k/1k per-decision cost {cur_flat:7.2f}x "
              f"(baseline {base_flat:.2f}x, gate <= {limit:.2f}x{cap_note}) "
              f"{status}")
        if cur_flat > limit:
            fail(f"{name} backlog scaling regressed: per-decision cost "
                 f"grew {cur_flat:.2f}x from 1k to 64k (gate <= "
                 f"{limit:.2f}x)")

        # Hard speedup floor vs the reference core, same run & host.
        speedup = cur["n64k"] / cur_ref["n64k"]
        status = "ok" if speedup >= speed_floor else "FAIL"
        print(f"{name:16s} 64k speedup vs reference {speedup:7.1f}x "
              f"(required >= {speed_floor:.0f}x) {status}")
        if speedup < speed_floor:
            fail(f"{name} indexed-core speedup floor violated: "
                 f"{speedup:.1f}x < {speed_floor:.0f}x vs {ref_name} at "
                 f"64k backlog")

        base_speedup = base["n64k"] / base_ref["n64k"]
        if speedup < base_speedup * (1.0 - tolerance):
            print(f"WARN: {name} 64k speedup {speedup:.1f}x is below the "
                  f"baseline {base_speedup:.1f}x band (host cache/memory "
                  f"differences move this; the floors above are the gate)")

        warn_absolute(name, base, cur, ("n1k", "n8k", "n64k"), tolerance)

    # The exact-window planner row: the branch-and-bound node budget caps
    # per-decision work independent of backlog depth, so its backlog curve
    # gates against the recorded baseline ratio like the other indexed
    # paths (no reference twin — the seed core never had an exact solver).
    cur_ex = current.get("exact_w8")
    base_ex = baseline.get("exact_w8")
    if cur_ex is None:
        fail("metric 'exact_w8' missing from current run")
    elif base_ex is None:
        fail("metric 'exact_w8' missing from baseline — refresh "
             "bench/baseline.json with the full bench output")
    else:
        base_flat = base_ex["n1k"] / base_ex["n64k"]
        cur_flat = cur_ex["n1k"] / cur_ex["n64k"]
        limit = base_flat * (1.0 + tolerance)
        status = "ok" if cur_flat <= limit else "FAIL"
        print(f"{'exact_w8':16s} 64k/1k per-decision cost {cur_flat:7.2f}x "
              f"(baseline {base_flat:.2f}x, gate <= {limit:.2f}x) {status}")
        if cur_flat > limit:
            fail(f"exact_w8 backlog scaling regressed: per-decision cost "
                 f"grew {cur_flat:.2f}x from 1k to 64k (gate <= "
                 f"{limit:.2f}x)")
        warn_absolute("exact_w8", base_ex, cur_ex, ("n1k", "n8k", "n64k"),
                      tolerance)

    # Optimality-gap self-check on the storm window: bound <= exact <=
    # every greedy heuristic, with the optimum PROVED (unlimited budget on
    # 8 jobs). Pure solver contracts, host-independent — they gate HARD.
    og = current_doc.get("optgap")
    if og is None:
        fail("'optgap' block missing from current run")
    else:
        ok = (og.get("proved") is True
              and og["bound"] <= og["exact"] + 1e-9 * (1.0 + abs(og["exact"]))
              and og["exact"] <= og["fcfs"] + 1e-9 * (1.0 + abs(og["fcfs"]))
              and og["exact"] <= og["sjf"] + 1e-9 * (1.0 + abs(og["sjf"])))
        print(f"{'optgap':16s} bound {og['bound']:.4g} <= exact "
              f"{og['exact']:.4g} (proved={og.get('proved')}) <= fcfs "
              f"{og['fcfs']:.4g} / sjf {og['sjf']:.4g} (hard gate) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            fail("optimality-gap invariant violated on the storm window: "
                 "need proved bound <= exact <= every greedy heuristic "
                 "(run test_exact_window)")

    # Adversarial staircase mix throughput: the two mixes do genuinely
    # different per-decision work (the adversarial storm keeps the machine
    # blocked, so every decision runs a live reservation + full backfill
    # scan), so wall-clock only WARNS against the recorded slowdown band.
    # The worst-case claim itself gates on NODE VISITS below — a pure
    # algorithmic count, identical on every host.
    cur_adv = current.get("fcfs_easy_adv")
    base_adv = baseline.get("fcfs_easy_adv")
    if cur_adv is None:
        fail("metric 'fcfs_easy_adv' missing from current run")
    elif base_adv is None:
        fail("metric 'fcfs_easy_adv' missing from baseline — refresh "
             "bench/baseline.json with the full bench output")
    else:
        slowdown = current["fcfs_easy"]["n64k"] / cur_adv["n64k"]
        base_slow = baseline["fcfs_easy"]["n64k"] / base_adv["n64k"]
        print(f"{'fcfs_easy_adv':16s} adversarial vs benign at 64k "
              f"{slowdown:7.2f}x slower (baseline {base_slow:.2f}x)")
        if slowdown > base_slow * (1.0 + tolerance):
            print(f"WARN: adversarial mix slowed {slowdown:.2f}x vs the "
                  f"baseline {base_slow:.2f}x band — check the node-visit "
                  f"gate below for the algorithmic signal")
        warn_absolute("fcfs_easy_adv", base_adv, cur_adv,
                      ("n1k", "n8k", "n64k"), tolerance)

    # Node visits per backfill query: a pure algorithmic count, identical
    # on every host, so it gates HARD against the baseline. Only
    # RLSCHED_INDEX_STATS builds report it (check.sh --perf configures
    # the perf build with it ON).
    if not current_doc.get("index_stats"):
        print("WARN: node-visit gate skipped — bench built without "
              "RLSCHED_INDEX_STATS (check.sh --perf turns it on)")
        return
    cur_vpq = current_doc.get("visits_per_query", {})
    base_vpq = baseline_doc.get("visits_per_query", {})
    for mix in ("fcfs_easy", "fcfs_easy_adv"):
        if mix not in cur_vpq or mix not in base_vpq:
            fail(f"visits_per_query '{mix}' missing from "
                 f"{'current run' if mix not in cur_vpq else 'baseline'}")
            return
        limit = base_vpq[mix]["n64k"] * (1.0 + tolerance)
        got = cur_vpq[mix]["n64k"]
        status = "ok" if got <= limit else "FAIL"
        print(f"{mix:16s} node visits/query at 64k {got:7.2f} "
              f"(baseline {base_vpq[mix]['n64k']:.2f}, gate <= "
              f"{limit:.2f}) {status}")
        if got > limit:
            fail(f"{mix} backfill descent regressed: {got:.2f} node "
                 f"visits per query at 64k (gate <= {limit:.2f})")
    ratio = cur_vpq["fcfs_easy_adv"]["n64k"] / max(
        cur_vpq["fcfs_easy"]["n64k"], 1e-9)
    status = "ok" if ratio <= 2.0 else "FAIL"
    print(f"{'visits ratio':16s} adversarial/benign at 64k {ratio:7.2f}x "
          f"(gate <= 2.00x) {status}")
    if ratio > 2.0:
        fail(f"adversarial backfill descent visits {ratio:.2f}x the "
             f"benign mix's nodes per query at 64k (gate <= 2.00x)")


def check_optgap_table(baseline_doc, current_doc, tolerance):
    # The window generator and solver budget are RUN configuration: gap
    # ratios recorded at another shape are honest numbers the baseline was
    # never recorded for — config error, same policy as simd_lanes.
    for field in ("objective", "window", "windows", "max_nodes"):
        if baseline_doc.get(field) != current_doc.get(field):
            fail(f"bench config mismatch: {field} is "
                 f"{current_doc.get(field)} here but the baseline was "
                 f"recorded at {baseline_doc.get(field)} — refresh "
                 f"bench/baseline.json for this configuration")
            return

    def gap_avg(trace_doc, heur_vals):
        total = 0.0
        for i, v in enumerate(heur_vals):
            denom = (trace_doc["exact"][i] if trace_doc["proved"][i]
                     else trace_doc["bound"][i])
            total += v / max(denom, 1e-12)
        return total / len(heur_vals)

    base_traces = baseline_doc["traces"]
    cur_traces = current_doc["traces"]
    for name, base in sorted(base_traces.items()):
        cur = cur_traces.get(name)
        if cur is None:
            fail(f"trace '{name}' missing from current run")
            continue

        exact, bound, proved = cur["exact"], cur["bound"], cur["proved"]
        proved_ct = sum(proved)

        # HARD within-run invariants, host-independent by construction.
        # The JSON round-trips doubles at %.17g, so only a relative-epsilon
        # cushion against a lossy serializer is allowed here.
        for i in range(len(exact)):
            if bound[i] > exact[i] + 1e-9 * (1.0 + abs(exact[i])):
                fail(f"{name} window {i}: lower bound {bound[i]:.17g} "
                     f"EXCEEDS the exact objective {exact[i]:.17g} — the "
                     f"bound is inadmissible (run test_exact_window)")
        for hname, vals in sorted(cur["heuristics"].items()):
            for i, v in enumerate(vals):
                if proved[i] and exact[i] > v + 1e-9 * (1.0 + abs(v)):
                    fail(f"{name}/{hname} window {i}: proved optimum "
                         f"{exact[i]:.17g} EXCEEDS the heuristic objective "
                         f"{v:.17g} — the 'exact' solver is not exact")

        # Gap ratios and proved counts drift with compiler FP contraction:
        # baseline comparisons WARN only.
        base_proved = sum(base["proved"])
        print(f"{name:16s} proved {proved_ct}/{len(proved)} windows "
              f"(baseline {base_proved}/{len(base['proved'])}), "
              f"{cur['nodes']} nodes")
        if proved_ct < base_proved:
            print(f"WARN: {name} proved only {proved_ct} windows vs "
                  f"{base_proved} in the baseline (FP contraction moves "
                  f"pruning; the within-run invariants above are the gate)")
        for hname, vals in sorted(cur["heuristics"].items()):
            base_vals = base["heuristics"].get(hname)
            if base_vals is None:
                fail(f"{name}/{hname} missing from baseline — refresh "
                     f"bench/baseline.json with the full bench output")
                continue
            cur_gap = gap_avg(cur, vals)
            base_gap = gap_avg(base, base_vals)
            print(f"{name:16s} {hname:8s} avg gap {cur_gap:7.3f}x "
                  f"(baseline {base_gap:.3f}x)")
            if cur_gap > base_gap * (1.0 + tolerance):
                print(f"WARN: {name}/{hname} average gap {cur_gap:.3f}x is "
                      f"above the baseline {base_gap:.3f}x band")


def check_decision_latency(baseline_doc, current_doc, tolerance):
    # simd_lanes/pool_windows are BUILD properties: a mismatch means the
    # baseline was never recorded for this binary — config error.
    for field in ("simd_lanes", "pool_windows"):
        if baseline_doc.get(field) != current_doc.get(field):
            fail(f"bench config mismatch: {field} is "
                 f"{current_doc.get(field)} here but the baseline was "
                 f"recorded at {baseline_doc.get(field)} — refresh "
                 f"bench/baseline.json for this build configuration")
            return
    baseline = baseline_doc["metrics"]
    current = current_doc["metrics"]
    # Live-prefix ceiling: time per decision is 1 / decisions-per-sec, so
    # sparse time / full time == full dps / sparse dps.
    if "kernel_f32_sparse" not in current or "kernel_f32" not in current:
        fail("metric 'kernel_f32' or 'kernel_f32_sparse' missing from "
             "current run")
        return
    ceiling = baseline_doc["sparse_max_time_ratio"]
    for b in ("b1", "b8"):
        ratio = current["kernel_f32"][b] / current["kernel_f32_sparse"][b]
        status = "ok" if ratio <= ceiling else "FAIL"
        print(f"{'sparse/full f32':16s} {b} time ratio {ratio:7.3f} "
              f"(gate <= {ceiling:.2f}) {status}")
        if ratio > ceiling:
            fail(f"sparse-window float decision costs {ratio:.3f}x a "
                 f"full-window one at {b} (ceiling {ceiling:.2f}x)")
    warn_absolute("kernel_f32_sparse", baseline["kernel_f32_sparse"],
                  current["kernel_f32_sparse"], ("b1", "b8"), tolerance)

    # quant_isa is a HOST property (CPUID dispatch at weight-load time):
    # a generic host produces honest int8 numbers the floor was never
    # recorded against, so skip with a warning instead of failing.
    if baseline_doc.get("quant_isa") != current_doc.get("quant_isa"):
        print(f"WARN: quantized-inference gate skipped — this host "
              f"dispatches quant_isa={current_doc.get('quant_isa')} but "
              f"the baseline was recorded on "
              f"{baseline_doc.get('quant_isa')}")
        return

    for name in ("kernel_f32", "kernel_int8"):
        if name not in current:
            fail(f"metric '{name}' missing from current run")
            return

    for b in ("b1", "b32"):
        base_ratio = baseline["kernel_int8"][b] / baseline["kernel_f32"][b]
        cur_ratio = current["kernel_int8"][b] / current["kernel_f32"][b]
        floor = base_ratio * (1.0 - tolerance)
        status = "ok" if cur_ratio >= floor else "FAIL"
        print(f"{'int8/f32':16s} {b} speedup {cur_ratio:7.2f}x (baseline "
              f"{base_ratio:.2f}x, gate >= {floor:.2f}x) {status}")
        if cur_ratio < floor:
            fail(f"int8/f32 {b} speedup regressed: {cur_ratio:.2f}x < "
                 f"{floor:.2f}x")

    got = current["kernel_int8"]["b32"] / current["kernel_f32"]["b32"]
    status = "ok" if got >= 5.0 else "FAIL"
    print(f"{'int8/f32':16s} hard floor at B=32 {got:7.2f}x "
          f"(required >= 5.0x) {status}")
    if got < 5.0:
        fail(f"quantized inference floor violated: int8 is only "
             f"{got:.2f}x float32 at B=32 (required >= 5.0x)")

    for name in ("kernel_f32", "kernel_int8"):
        warn_absolute(name, baseline[name], current[name], ("b1", "b32"),
                      tolerance)


def check_serve_load(baseline_doc, current_doc, tolerance):
    # batch/jobs/dispatchers are RUN configuration: numbers at another
    # width are honest but the baseline was never recorded for them —
    # config error, same policy as simd_lanes.
    for field in ("batch", "jobs", "dispatchers"):
        if baseline_doc.get(field) != current_doc.get(field):
            fail(f"bench config mismatch: {field} is "
                 f"{current_doc.get(field)} here but the baseline was "
                 f"recorded at {baseline_doc.get(field)} — refresh "
                 f"bench/baseline.json for this run configuration")
            return

    # The three bitwise invariance self-checks are the daemon's
    # load-bearing contracts, host-independent by construction; a fast
    # daemon with different answers is broken, full stop.
    invariants = (
        ("invariant", "cross-session batching invariance violated: "
         "batched daemon results differ bitwise from batch-1 serial "
         "results"),
        ("shard_invariant", "dispatcher sharding invariance violated: "
         "N-dispatcher results differ bitwise from the single-dispatcher "
         "daemon"),
        ("wire_invariant", "wire framing invariance violated: socket "
         "results differ bitwise from in-process results"),
    )
    for key, msg in invariants:
        ok = current_doc.get(key) is True
        print(f"{key:16s} {'true' if ok else current_doc.get(key)} "
              f"(hard gate) {'ok' if ok else 'FAIL'}")
        if not ok:
            fail(msg)

    batch = current_doc.get("batch", 0)
    floor = batch / 2.0
    baseline = baseline_doc["metrics"]
    current = current_doc["metrics"]
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            fail(f"metric '{name}' missing from current run")
            continue

        # Exactly-once-or-cancelled accounting: every submitted request
        # ends in exactly one terminal state. Pre-overload rows have zero
        # shed/cancelled, so this is a strict generalization of the old
        # completed == submitted gate.
        completed = cur.get("completed", 0)
        shed = cur.get("shed", 0)
        cancelled = cur.get("cancelled", 0)
        if completed + shed + cancelled != cur.get("submitted"):
            fail(f"{name}: {completed} completed + {shed} shed + "
                 f"{cancelled} cancelled != {cur.get('submitted')} "
                 f"submitted — the daemon lost or double-counted work")

        # The overload row must actually OVERLOAD: if nothing was shed the
        # offered rate never exceeded capacity and the graceful-degradation
        # path went untested.
        if name.startswith("ov_") and shed == 0:
            fail(f"{name}: overload row shed nothing — offered rate did "
                 f"not exceed capacity, bounded-queue shedding untested")

        # Windows per forward is a pure algorithmic count (identical on
        # every host): near `batch` when cross-session batching engages,
        # 1.0 when the dispatcher quietly degrades to serial service.
        # Open-loop rows (ol_*/sock_ol_*) are exempt: Poisson arrivals are
        # sparse by design, so their honest windows/forward sits near 1
        # and only the completion accounting above gates them.
        if name.startswith(("ol_", "sock_ol_", "ov_")):
            print(f"{name:16s} windows/forward "
                  f"{cur.get('windows_per_forward', 0.0):7.2f} "
                  f"(open-loop/overload row: no floor)")
        else:
            wpf = cur.get("windows_per_forward", 0.0)
            status = "ok" if wpf >= floor else "FAIL"
            print(f"{name:16s} windows/forward {wpf:7.2f} "
                  f"(batch {batch}, gate >= {floor:.1f}) {status}")
            if wpf < floor:
                fail(f"{name} cross-session batching disengaged: "
                     f"{wpf:.2f} windows per forward (gate >= {floor:.1f} "
                     f"at batch {batch})")

        warn_absolute(name, base, cur, ("dps",), tolerance)
        if name.startswith("ov_"):
            # Bounded-p99 HARD gate: the overload row exists to prove the
            # bounded queue keeps accepted-request latency at
            # depth x service-time instead of growing with the backlog. An
            # unbounded-queue regression inflates p99 by orders of
            # magnitude (it scales with the run length), so a generous 4x
            # band over the baseline separates "slower host" from "queue
            # no longer bounded".
            ceiling = base["p99_ms"] * (1.0 + tolerance) * 4.0
            status = "ok" if cur["p99_ms"] <= ceiling else "FAIL"
            print(f"{name:16s} overload p99 {cur['p99_ms']:9.1f} ms "
                  f"(gate <= {ceiling:.1f} ms) {status}")
            if cur["p99_ms"] > ceiling:
                fail(f"{name}: accepted-request p99 {cur['p99_ms']:.1f} ms "
                     f"breached the bounded-queue ceiling {ceiling:.1f} ms "
                     f"— shedding is no longer keeping latency bounded")
        elif cur["p99_ms"] > base["p99_ms"] * (1.0 + tolerance):
            print(f"WARN: {name} p99 latency {cur['p99_ms']:.1f} ms is "
                  f"above the baseline {base['p99_ms']:.1f} ms band (host "
                  f"speed difference or real regression — the hard gates "
                  f"above are the signal)")


CHECKERS = {
    "bench_batch_inference": check_batch_inference,
    "bench_decision_latency": check_decision_latency,
    "bench_sched_scaling": check_sched_scaling,
    "bench_serve_load": check_serve_load,
    "bench_table5_bsld": check_optgap_table,
    "bench_table6_util": check_optgap_table,
}


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    tolerance = 0.25
    if "--tolerance" in argv:
        tolerance = float(argv[argv.index("--tolerance") + 1])
    with open(argv[1]) as f:
        baseline_root = json.load(f)
    with open(argv[2]) as f:
        current_doc = json.load(f)

    bench = current_doc.get("bench")
    checker = CHECKERS.get(bench)
    if checker is None:
        print(f"unknown bench '{bench}' in {argv[2]}")
        return 2
    benches = baseline_root.get("benches", {})
    baseline_doc = benches.get(bench)
    if baseline_doc is None:
        print(f"no baseline entry for '{bench}' in {argv[1]}")
        return 2

    checker(baseline_doc, current_doc, tolerance)

    if failures:
        print(f"perf gate [{bench}]: {failures} failure(s)")
        return 1
    print(f"perf gate [{bench}]: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
