"""Self-tests of the benchmark, on small copies of every workload.

    python3 -m pytest -q perfbench

Each workload's configs are shrunk (fewer info bits) so the file runs
in seconds; the checks are the ones the benchmark relies on.
"""

from dataclasses import replace

import pytest

import workload as wb
from spans import EXACT_COUNTS, LAYERS, Tracer

wb.import_turbomud()


def small_configs(name):
    return [(label, replace(cfg, info_bits=24))
            for label, cfg in wb.workload_configs(name)]


def traced_run(configs, scratch):
    tracer = Tracer().install()
    try:
        outputs = wb.run_rep(configs, scratch).outputs
    finally:
        tracer.uninstall()
    return outputs, tracer.metrics(1.0)


@pytest.mark.parametrize("name", sorted(wb.WORKLOADS))
def test_traced_outputs_identical_to_untraced(name, tmp_path):
    configs = small_configs(name)
    plain = wb.run_rep(configs, str(tmp_path))
    traced, metrics = traced_run(configs, str(tmp_path))
    assert plain.failed == 0 and plain.bits > 0 and plain.points > 0
    assert traced == plain.outputs
    assert metrics["harness.calls"][0] == len(configs)
    assert all(metrics[f"{layer}.errors"][0] == 0 for layer in LAYERS)


@pytest.mark.parametrize("name", sorted(wb.WORKLOADS))
def test_computed_counts_repeat_exactly(name, tmp_path):
    configs = small_configs(name)
    first = traced_run(configs, str(tmp_path))[1]
    second = traced_run(configs, str(tmp_path))[1]
    for key in EXACT_COUNTS + tuple(f"{layer}.calls" for layer in LAYERS):
        assert first[key] == second[key], key
    assert first["harness.frames"][0] == sum(
        len(cfg.snr_db) * cfg.frame_cap for _, cfg in configs)


def test_uninstall_restores_every_entry_point():
    import turbomud.harness
    import turbomud.siso_ddf

    before = (turbomud.harness.run_scenario,
              turbomud.siso_ddf.DdfPrecompute.__dict__["from_channel"])
    Tracer().install().uninstall()
    after = (turbomud.harness.run_scenario,
             turbomud.siso_ddf.DdfPrecompute.__dict__["from_channel"])
    assert before == after


def test_stored_references_pass_their_own_gate():
    for name, wl in wb.WORKLOADS.items():
        for label, _ in wl.variants:
            ref = wb.read_reference(name, label)
            assert wb.reference_mismatches(*ref, *ref) == set()


def _edit_cell(csv_text, row, column, fn):
    lines = csv_text.splitlines()
    cells = lines[row].split(",")
    cells[column] = fn(cells[column])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_gate_tolerance_accepts_ulp_noise_and_rejects_wrong_output():
    err, em = wb.read_reference("em-k32", "gaussian-flooding-em")

    def mismatches(err_csv=err, em_csv=em):
        return wb.reference_mismatches(err_csv, em_csv, err, em)

    one_more = _edit_cell(err, 1, 4, lambda v: str(int(v) + 1))
    five_more = _edit_cell(err, 1, 4, lambda v: str(int(v) + 5))
    bits_off = _edit_cell(err, 1, 3, lambda v: str(int(v) - 1))
    em_ulp = _edit_cell(em, 1, 2, lambda v: repr(float(v) * (1 + 1e-13)))
    em_off = _edit_cell(em, 1, 2, lambda v: repr(float(v) * (1 + 1e-6)))
    assert mismatches(one_more) == set()
    assert mismatches(em_csv=em_ulp) == set()
    assert mismatches(five_more) == {"5"}
    assert mismatches(bits_off) == {"5"}
    assert mismatches(em_csv=em_off) == {"5"}
    assert mismatches(err.splitlines()[0] + "\n") == {"5"}


def test_sanity_check_rejects_high_final_ber():
    name = "em-k32"
    cfg = wb.workload_configs(name)[0][1]
    err, _ = wb.read_reference(name, "gaussian-flooding-em")
    assert wb.sanity_failures(cfg, err, wb.WORKLOADS[name].max_final_ber) \
        == set()
    last = len(err.splitlines()) - 1
    broken = _edit_cell(err, last, 4, lambda v: "200")
    assert wb.sanity_failures(cfg, broken, 0.01) == {"5"}
