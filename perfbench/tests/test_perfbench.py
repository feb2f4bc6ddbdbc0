"""Tests of the benchmark harness itself (not of fracloc).

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import math

import pytest

import verify
from run import tail_percentile
from spans import Tracer, op_metrics, self_times
from workloads import WORKLOADS


def test_self_time_subtracts_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the overlap counts once
        ("a.child", 2.0, 3.0, 1),
        ("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_op_metrics_split_stage_and_self_times():
    tracer = Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1, 1],
        ["locate_multi.scan_indicator", 1.0, 7.0, 0, 1],
        ["locate_multi.g_matrix", 2.0, 5.0, 1, 1],
        ["greenfn.s_kernel", 3.0, 4.0, 2, 1],
        ["greenfn.s_kernel", 4.0, 4.5, 2, 1],
        ["cli.main", 20.0, 21.0, -1, 2],  # another op: ignored
    ]
    tracer.quantities = [(1, "greenfn.s_kernel_points", 7), (2, "greenfn.s_kernel_points", 99)]
    m = op_metrics(tracer, 1)
    assert m["cli.op_s"] == pytest.approx(10.0)
    assert m["locate_multi.scan_s"] == pytest.approx(6.0)
    assert m["locate_multi.g_matrix_s"] == pytest.approx(1.5)
    assert m["greenfn.s_kernel_s"] == pytest.approx(1.5)
    assert m["greenfn.s_kernel_calls"] == 2
    assert m["greenfn.s_kernel_points"] == 7
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["forward.factor_reuse"] == 0.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([float(v) for v in range(99)]) is None
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values) == pytest.approx(90.1)
    assert sum(v > tail_percentile(values) for v in values) == 10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_in_seed_and_index(name):
    wl = WORKLOADS[name]
    assert [wl.config(7, i) for i in range(4)] == [wl.config(7, i) for i in range(4)]
    assert wl.config(7, 0) != wl.config(8, 0)
    assert wl.config(7, 0) != wl.config(7, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_inclusions_follow_the_stated_ranges(name):
    wl = WORKLOADS[name]
    for seed in range(20):
        incs = wl.config(seed, seed % 3)["inclusions"]
        assert len(incs) in (1, 2)
        for inc in incs:
            assert math.hypot(*inc["center"]) <= 0.6
            assert 0.03 <= inc["eps"] <= (0.07 if len(incs) == 2 else 0.08)
        if len(incs) == 2:
            assert math.dist(incs[0]["center"], incs[1]["center"]) >= 0.3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_pass_load_config(name, tmp_path):
    from fracloc.cli import load_config

    wl = WORKLOADS[name]
    for seed in range(5):
        for index in range(3):
            cfg = dict(wl.config(seed, index), output_dir=str(tmp_path / "out"))
            path = tmp_path / f"{seed}-{index}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            loaded = load_config(path)
            assert loaded["time_steps"] == cfg["time_steps"]
            assert loaded["inclusions"] == cfg["inclusions"]


def test_tracer_wraps_every_binding_and_removes_every_wrapper():
    import fracloc.cli
    import fracloc.forward
    import fracloc.locate_multi

    original = fracloc.forward.solve_subdiffusion
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (fracloc.forward, fracloc.cli, fracloc.locate_multi):
            assert mod.solve_subdiffusion is not original
            assert mod.solve_subdiffusion.__wrapped__ is original
        assert fracloc.forward.SpaceTimeField.to_csv.__wrapped__ is not None
    finally:
        tracer.remove()
    for mod in (fracloc.forward, fracloc.cli, fracloc.locate_multi):
        assert mod.solve_subdiffusion is original
    assert not hasattr(fracloc.forward.SpaceTimeField.to_csv, "__wrapped__")


def test_output_hashes_reject_a_changed_file(tmp_path):
    (tmp_path / "a.csv").write_text("x\n1\n", encoding="ascii")
    digest = hashlib.sha256(b"x\n1\n").hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": {"a.csv": digest}}))
    assert verify.output_hashes(tmp_path) == {"a.csv": digest}
    (tmp_path / "a.csv").write_text("x\n2\n", encoding="ascii")
    with pytest.raises(verify.CheckFailed):
        verify.output_hashes(tmp_path)


def test_forward_check_rejects_a_background_trace_off_a_dot_x(tmp_path):
    cfg = {"background": {"direction": [0.6, 0.8]}}
    for name in ("mesh.txt", "background_field.csv", "solution_trace.csv"):
        (tmp_path / name).write_text("", encoding="ascii")
    rows = [f"{th!r},{0.6 * math.cos(th) + 0.8 * math.sin(th)!r}" for th in (0.1, 2.0)]
    (tmp_path / "background_trace.csv").write_text("angle,t0\n" + "\n".join(rows) + "\n")
    assert verify.check_forward(cfg, tmp_path) is None
    (tmp_path / "background_trace.csv").write_text("angle,t0\n0.1,0.5\n")
    with pytest.raises(verify.CheckFailed):
        verify.check_forward(cfg, tmp_path)
