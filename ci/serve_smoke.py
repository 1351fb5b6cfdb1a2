#!/usr/bin/env python3
"""serve_smoke — CI gate for the floorplanning-as-a-service daemon.

Drives an ALREADY-RUNNING `serve` daemon over its JSONL/TCP protocol and
asserts the three contracts CI cares about:

  1. Parity: a scenario submitted verbatim must come back bit-identical (on
     the deterministic fields) to the same scenario's entry in a regress
     report produced by the inline CLI path — serving must never change
     results.
  2. Mid-flight cancellation: a long SA-only job cancelled while running
     lands in state `cancelled` with a degraded, stop_reason-tagged
     best-so-far payload (never a hang, never a silent full result).
  3. A second plain scenario runs to `done` with a legal floorplan, and the
     engine's stats reflect exactly what happened: two jobs done, one
     cancelled, and one characterized model per interposer footprint.

Daemon lifecycle (start, SIGTERM, exit-0 assertion) belongs to the CI step;
this script only speaks the protocol.

Usage:
  serve_smoke.py --port-file PATH --regress-json BENCH_regress.json
                 [--scenario-dir scenarios] [--timeout 600]
"""

import argparse
import json
import socket
import sys
import time

# The fields that must match bit-for-bit between served and inline runs.
# Timing fields (seconds, per_sec, ...) are intentionally excluded.
DETERMINISTIC_LEG_FIELDS = (
    "legal", "temp_c", "fast_temp_c", "wirelength_mm", "reward", "work",
)


class ServeClient:
    """Minimal blocking JSONL client (mirrors src/serve/client.h)."""

    def __init__(self, host, port, timeout):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        self.stream = self.sock.makefile("rw", encoding="utf-8")

    def request(self, payload):
        self.stream.write(json.dumps(payload) + "\n")
        self.stream.flush()
        while True:
            line = self.stream.readline()
            if not line:
                raise RuntimeError("daemon closed the connection")
            response = json.loads(line)
            # Progress events stream before the final response; skip them.
            if response.get("event") == "progress":
                continue
            return response

    def checked(self, payload):
        response = self.request(payload)
        if not response.get("ok"):
            raise RuntimeError(
                f"request {payload.get('op')} failed: {response.get('error')}")
        return response

    def close(self):
        self.sock.close()


def check_parity(served_result, regress_entry, name):
    """Diff the deterministic fields of both legs; return error strings."""
    errors = []
    for leg in ("sa", "rl"):
        served_leg = served_result.get(leg)
        regress_leg = regress_entry.get(leg)
        if (served_leg is None) != (regress_leg is None):
            errors.append(f"{name}.{leg}: present in one path only")
            continue
        if served_leg is None:
            continue
        for field in DETERMINISTIC_LEG_FIELDS:
            if served_leg.get(field) != regress_leg.get(field):
                errors.append(
                    f"{name}.{leg}.{field}: served={served_leg.get(field)!r} "
                    f"inline={regress_leg.get(field)!r}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port-file", required=True,
                        help="file the daemon wrote its bound port to")
    parser.add_argument("--regress-json", required=True,
                        help="BENCH_regress.json from the inline CLI run")
    parser.add_argument("--scenario-dir", default="scenarios")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-request socket timeout (sanitizer legs "
                             "are slow)")
    args = parser.parse_args()

    with open(args.port_file, encoding="utf-8") as f:
        port = int(f.read().strip())
    regress = json.load(open(args.regress_json, encoding="utf-8"))
    regress_by_name = {s["name"]: s for s in regress["scenarios"]}

    parity_scenario = json.load(
        open(f"{args.scenario_dir}/inline_tiny_trio.json", encoding="utf-8"))
    second_scenario = json.load(
        open(f"{args.scenario_dir}/family_sweep04.json", encoding="utf-8"))

    client = ServeClient("127.0.0.1", port, args.timeout)
    failures = []

    # ---- 1. parity job -----------------------------------------------------
    job = client.checked({"op": "submit", "scenario": parity_scenario})
    response = client.checked({"op": "result", "id": job["id"], "wait": True})
    state = response["job"]["state"]
    if state != "done":
        failures.append(f"parity job ended {state}: {response}")
    else:
        entry = regress_by_name.get(parity_scenario["name"])
        if entry is None:
            failures.append(
                f"{parity_scenario['name']} missing from {args.regress_json}")
        else:
            failures += check_parity(response["result"], entry,
                                     parity_scenario["name"])
    print(f"[serve_smoke] parity job: state={state}")

    # ---- 2. mid-flight cancellation ---------------------------------------
    cancel_scenario = dict(parity_scenario)
    cancel_scenario["name"] = "cancel_probe"
    cancel_scenario["budget"] = dict(parity_scenario["budget"])
    # Big enough that no machine finishes before the cancel lands; SA-only so
    # the job is inside a cancellable optimization loop the whole time.
    cancel_scenario["budget"]["sa_evaluations"] = 500_000_000
    cancel_scenario["budget"]["run_rl"] = False
    job = client.checked({"op": "submit", "scenario": cancel_scenario})
    deadline = time.monotonic() + args.timeout
    while True:
        status = client.checked({"op": "status", "id": job["id"]})["job"]
        # "phase" is absent until the job reports its first phase.
        if status["state"] == "running" and status.get("phase") == "sa":
            break
        if status["state"] not in ("queued", "running"):
            failures.append(f"cancel probe ended early: {status}")
            break
        if time.monotonic() > deadline:
            failures.append(f"cancel probe never reached SA: {status}")
            break
        time.sleep(0.05)
    client.checked({"op": "cancel", "id": job["id"]})
    response = client.checked({"op": "result", "id": job["id"], "wait": True})
    state = response["job"]["state"]
    sa_leg = response.get("result", {}).get("sa", {})
    if state != "cancelled":
        failures.append(f"cancelled job ended {state}, want cancelled")
    if not sa_leg.get("degraded"):
        failures.append(f"cancelled job's SA leg not degraded-tagged: {sa_leg}")
    if sa_leg.get("stop_reason") != "cancelled":
        failures.append(
            f"stop_reason={sa_leg.get('stop_reason')!r}, want 'cancelled'")
    if sa_leg.get("work", 0) >= cancel_scenario["budget"]["sa_evaluations"]:
        failures.append("cancelled job ran its whole budget")
    print(f"[serve_smoke] cancel probe: state={state} "
          f"work={sa_leg.get('work')} stop_reason={sa_leg.get('stop_reason')}")

    # ---- 3. second scenario + stats ----------------------------------------
    job = client.checked({"op": "submit", "scenario": second_scenario})
    response = client.checked({"op": "result", "id": job["id"], "wait": True})
    state = response["job"]["state"]
    if state != "done":
        failures.append(f"{second_scenario['name']} ended {state}")
    elif not response["result"]["sa"]["legal"]:
        failures.append(f"{second_scenario['name']} SA leg not legal")
    print(f"[serve_smoke] {second_scenario['name']}: state={state}")

    stats = client.checked({"op": "stats"})["stats"]
    if stats["completed"] != 2 or stats["cancelled"] != 1:
        failures.append(
            f"stats completed={stats['completed']} cancelled="
            f"{stats['cancelled']}, want 2/1")
    # The parity job and the cancel probe share one 30x30 mm footprint and
    # family_sweep04 is 40x40 mm: two characterizations, one shared model.
    cache = stats["model_cache"]
    if cache["misses"] != 2 or cache["hits"] != 1:
        failures.append(
            f"model cache hits={cache['hits']} misses={cache['misses']}, "
            f"want 1/2 (one model per footprint)")
    print(f"[serve_smoke] stats: completed={stats['completed']} "
          f"cancelled={stats['cancelled']} "
          f"cache={cache['hits']}h/{cache['misses']}m")
    client.close()

    if failures:
        for failure in failures:
            print(f"[serve_smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[serve_smoke] all serve-smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
