"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import hashlib
import json
import math
import time
import zlib

import numpy as np
import pytest

from tabletamp.control import ErrorKind, exec_push
from tabletamp.geometry import (
    Polygon2,
    Pose6D,
    clip_convex,
    convex_hull,
    farthest_point_sample,
    geodesic_angle,
    point_in_polygon,
    quat_from_yaw,
    ring_area,
    se2_error,
)
from tabletamp.harness import (
    REPLAN_BUDGET,
    benchmark_csv,
    check_success,
    episode_trace_json,
    run_benchmark,
)
from tabletamp.scenarios import Goal, all_scenarios, build_scenario
from tabletamp.subgoal import NoFeasiblePose, Sample, filter_and_rank
from tabletamp.twin import settle

from tests.test_pins import PINS, assert_pinned
from tests.test_twin import TABLE_H, base_scene, make_box

ABLATION_TASKS = ("book", "wall", "slot", "tool_hook")


def verdict(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def full_bench():
    t0 = time.perf_counter()
    rows, results = run_benchmark(all_scenarios(), 10)
    elapsed = time.perf_counter() - t0
    return rows, results, elapsed


@pytest.fixture(scope="module")
def no_reflection_bench():
    scenarios = [build_scenario(sid) for sid in ABLATION_TASKS]
    rows, _ = run_benchmark(scenarios, 10, ablation="no_reflection")
    return {r.task: r.successes for r in rows}


@pytest.fixture(scope="module")
def no_pose_bench():
    scenarios = [build_scenario(sid) for sid in ABLATION_TASKS]
    rows, _ = run_benchmark(scenarios, 10, ablation="no_pose")
    return {r.task: r.successes for r in rows}


class TestAcceptance:
    def test_01_scripted_end_to_end_benchmark(self, full_bench):
        rows, _, elapsed = full_bench
        counts = {r.task: r.successes for r in rows}
        ok = elapsed < 60.0 and len(rows) == 8 and all(
            c >= 9 for c in counts.values()
        )
        verdict(1, ok, f"8x10 scripted benchmark in {elapsed:.1f} s, "
                       f"successes {counts}")

    def test_02_no_reflection_trend(self, full_bench, no_reflection_bench):
        rows, _, _ = full_bench
        full = {r.task: r.successes for r in rows}
        ablated = no_reflection_bench
        ok = all(ablated[t] <= 1 for t in ABLATION_TASKS) and all(
            full[t] >= 9 for t in ABLATION_TASKS
        )
        verdict(2, ok, f"w/o reflection {ablated} vs full "
                       f"{ {t: full[t] for t in ABLATION_TASKS} }")

    def test_03_no_pose_trend(self, full_bench, no_pose_bench):
        rows, _, _ = full_bench
        full = {r.task: r.successes for r in rows}
        ablated = no_pose_bench
        strictly_lower = all(ablated[t] < full[t] for t in ABLATION_TASKS)
        full_sum = sum(full[t] for t in ABLATION_TASKS)
        ablated_sum = sum(ablated[t] for t in ABLATION_TASKS)
        reduced = (full_sum - ablated_sum) / full_sum >= 0.40
        verdict(3, strictly_lower and reduced,
                f"w/o pose {ablated} (sum {ablated_sum}) vs full sum {full_sum}")

    def test_04_feasibility_filter_soundness(self):
        # 1000 randomized candidates per terrain type; zero retained
        # candidates may be non-stable and at most four are kept
        scenes = {
            "table": build_scenario("edge"),      # table + raised pad
            "wall": build_scenario("wall"),       # rails
            "slope": build_scenario("slope"),     # wedge
            "slot": build_scenario("slot"),       # groove
            "shelf": build_scenario("book"),      # cubby
            "open": build_scenario("tool_hook"),  # bare table
        }
        checked = 0
        violations = 0
        for label, scenario in scenes.items():
            scene = scenario.scene_template.as_twin()
            obj_id = scenario.primary_object
            rng = np.random.default_rng(zlib.crc32(label.encode()))
            batch = []
            for _ in range(1000):
                x, y = rng.uniform(-0.55, 0.55, size=2)
                yaw = rng.uniform(-math.pi, math.pi)
                z = rng.uniform(TABLE_H - 0.05, TABLE_H + 0.15)
                batch.append(Pose6D((x, y, z), quat_from_yaw(yaw)))
            for i in range(0, len(batch), 50):
                chunk = batch[i:i + 50]
                try:
                    cset = filter_and_rank([Sample.of(p) for p in chunk], obj_id, scene)
                except NoFeasiblePose:
                    continue
                checked += len(chunk)
                if len(cset.candidates) > 4:
                    violations += 1
                for cand in cset.candidates:
                    placed = scene.replace_object(
                        scene.object(obj_id).at_pose(cand.pose)
                    )
                    if settle(placed, obj_id).status != "stable":
                        violations += 1
        verdict(4, violations == 0,
                f"{len(scenes)}x1000 candidates, {violations} violations")

    def test_05_push_controller_contract(self):
        rng = np.random.default_rng(2024)
        failures = 0
        worst_iters = 0
        for trial in range(200):
            perturbed = trial % 2 == 1
            box = make_box(
                x=rng.uniform(-0.2, 0.2), y=rng.uniform(-0.3, 0.1),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            scene = base_scene([box], role="execution" if perturbed else "twin")
            if perturbed:
                assert scene.push_gain() == 0.85
            goal = Pose6D(
                (rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.1), TABLE_H + 0.05),
                quat_from_yaw(rng.uniform(-math.pi, math.pi)),
            )
            out, trace = exec_push(scene, "box", goal)
            d, yaw = se2_error(out.object("box").pose, goal)
            worst_iters = max(worst_iters, trace.iterations)
            if not trace.ok or d > 0.01 or yaw > 5.0 or trace.iterations > 300:
                failures += 1
        verdict(5, failures == 0,
                f"200/200 random pushes converged; worst {worst_iters} iterations")

    def test_06_geometry_oracles(self):
        rng = np.random.default_rng(99)

        def quat_to_matrix_np(q):
            w, x, y, z = q
            return np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])

        worst = 0.0
        for _ in range(1000):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            b = rng.normal(size=4)
            b /= np.linalg.norm(b)
            tr = np.clip((np.trace(quat_to_matrix_np(a).T @ quat_to_matrix_np(b)) - 1) / 2,
                         -1, 1)
            expected = math.degrees(math.acos(tr))
            worst = max(worst, abs(geodesic_angle(tuple(a), tuple(b)) - expected))
        geodesic_ok = worst < 1e-6

        pts = []
        n = 100
        for i in range(n):
            t = i / n
            pts += [(t, 0.0), (1.0, t), (1.0 - t, 1.0), (0.0, 1.0 - t)]
        idx = farthest_point_sample(pts, 4, pts.index((0.0, 0.0)))
        fps_ok = {pts[i] for i in idx} == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

        disagreements = 0
        checked = 0
        while checked < 100:
            overlap_case = checked % 2 == 0
            pa = rng.uniform(-0.5, 0.5, size=(10, 2))
            hull_a = convex_hull([tuple(p) for p in pa])
            if len(hull_a) < 3:
                continue
            a_poly = Polygon2(tuple(hull_a))
            if overlap_case:
                pb = rng.uniform(-0.5, 0.5, size=(10, 2)) + a_poly.centroid
                hull_b = convex_hull([tuple(p) for p in pb])
                if len(hull_b) < 3:
                    continue
                b_poly = Polygon2(tuple(hull_b))
                if not point_in_polygon(b_poly.centroid, a_poly):
                    continue
            else:
                pb = rng.uniform(-0.5, 0.5, size=(10, 2)) + (4.0, 4.0)
                hull_b = convex_hull([tuple(p) for p in pb])
                if len(hull_b) < 3:
                    continue
                b_poly = Polygon2(tuple(hull_b))
            xs = [v[0] for v in a_poly.vertices]
            ys = [v[1] for v in a_poly.vertices]
            sx = rng.uniform(min(xs), max(xs), size=10_000)
            sy = rng.uniform(min(ys), max(ys), size=10_000)
            mc = any(
                point_in_polygon((x, y), a_poly) and point_in_polygon((x, y), b_poly)
                for x, y in zip(sx, sy)
            )
            overlap = ring_area(clip_convex(hull_a, hull_b)) > 1e-9
            if overlap != mc:
                disagreements += 1
            checked += 1
        overlap_ok = disagreements == 0

        verdict(6, geodesic_ok and fps_ok and overlap_ok,
                f"geodesic worst {worst:.2e} deg; FPS corners exact: {fps_ok}; "
                f"clipped-area overlap vs Monte-Carlo disagreements: {disagreements}")

    def test_07_success_criterion_fidelity(self):
        sc = build_scenario("box")
        goal = Goal("pose", target=Pose6D((0.0, 0.0, TABLE_H + 0.045),
                                          quat_from_yaw(0.0)))
        scene = sc.scene_template

        def with_box(x, yaw_deg):
            obj = scene.object("box")
            return scene.replace_object(obj.at_pose(
                Pose6D((x, 0.0, obj.pose.z), quat_from_yaw(math.radians(yaw_deg)))
            ))

        cases = [
            (with_box(0.0299, 9.99), True),
            (with_box(0.0301, 0.0), False),
            (with_box(0.0, 10.01), False),
        ]
        ok = all(check_success(s, goal, "box") == expected for s, expected in cases)
        verdict(7, ok, "boundaries (0.0299 m, 9.99 deg) pass; "
                       "(0.0301 m) and (10.01 deg) fail")

    def test_08_replan_budget(self, full_bench):
        _, results, _ = full_bench
        ok = all(
            r.replans_used <= REPLAN_BUDGET
            and len(r.attempts) == r.replans_used + 1
            for r in results
        )
        worst = max(r.replans_used for r in results)
        verdict(8, ok, f"80 episodes, max replans {worst} <= {REPLAN_BUDGET}, "
                       f"attempts = replans + 1 everywhere")

    def test_09_determinism(self, full_bench):
        rows1, results1, _ = full_bench
        rows2, results2 = run_benchmark(all_scenarios(), 10)

        def strip_csv(rows):
            return "\n".join(
                ",".join(line.split(",")[:4])
                for line in benchmark_csv(rows).splitlines()
            )

        csv_ok = strip_csv(rows1) == strip_csv(rows2)
        trace_ok = True
        for a, b in zip(results1, results2):
            da = json.loads(episode_trace_json(a))
            db = json.loads(episode_trace_json(b))
            da.pop("wall_ms")
            db.pop("wall_ms")
            if da != db:
                trace_ok = False
                break
        verdict(9, csv_ok and trace_ok,
                "consecutive benchmark runs byte-identical modulo wall time")

    def test_09b_traces_match_pinned_digest(self, full_bench):
        # The 80 traces, without wall time, hashed as perfbench/run.py hashes
        # a pass. Speed-ups must leave this value alone; a change that alters
        # behaviour on purpose updates it and names the old and the new value
        # in CHANGES.md.
        _, results, _ = full_bench
        digest = hashlib.sha256()
        for r in results:
            trace = json.loads(episode_trace_json(r, indent=None))
            del trace["wall_ms"]
            digest.update(json.dumps(trace, sort_keys=True).encode() + b"\n")
        got = digest.hexdigest()
        assert_pinned("benchmark_traces_sha256", got, PINS["benchmark_traces_sha256"])
        verdict(9, True, f"8x10 traces sha256 {got[:8]}... equals its pin")

    def test_10_error_taxonomy_coverage(self, full_bench):
        _, results, _ = full_bench
        seen: set[str] = set()
        for r in results:
            for attempt in r.attempts:
                for outcome in attempt["outcomes"]:
                    if outcome["error"] is not None:
                        seen.add(outcome["error"]["kind"])
        # ObjectLost needs a dedicated fixture: a sub-goal past the table edge
        scenario = build_scenario("edge")
        scene = scenario.scene_template.as_execution()
        card = scene.object("card")
        _, trace = exec_push(
            scene, "card",
            Pose6D((card.pose.x, -0.46, card.pose.z), card.pose.orientation),
        )
        if not trace.ok:
            seen.add(trace.result.kind.value)
        want = {k.value for k in ErrorKind}
        verdict(10, want <= seen,
                f"kinds covered: {sorted(seen & want)} (fixtures: benchmark "
                f"episodes + edge over-the-edge push)")
