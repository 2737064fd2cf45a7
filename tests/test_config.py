import re
from pathlib import Path

import pytest

from etncs.config import (KNOWN_KEYS, ConfigError, apply_overrides, build_design_inputs,
                          build_scenario, format_config, load_config,
                          parse_config_text, run_design)
from etncs.design import min_m22_sq
from etncs.quantizer import KINDS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_parse_basics():
    cfg = parse_config_text("""
    # a comment
    plant.model = cubic_nl2
    plant.x0 = 10, -14   # trailing comment
    sim.h = 0.001
    """)
    assert cfg["plant.model"] == "cubic_nl2"
    assert cfg["plant.x0"] == "10, -14"
    assert cfg["sim.h"] == "0.001"


def test_schema_lists_exactly_the_known_keys():
    """configs/schema.txt's sections (``plant. / controller.``) and the key
    names that open their two-space indented lines (``nu, rho``,
    ``m11, m21, m22``) are the keys a config may set."""
    documented, sections = set(), []
    for line in (CONFIG_DIR / "schema.txt").read_text().splitlines():
        header = re.match(r"(\w+)\.(?: / (\w+)\.)?(?:\s|$)", line)
        if header:
            sections = [name for name in header.groups() if name]
        elif sections and line.startswith("  ") and not line.startswith("   "):
            names = re.match(r"[\w.]+(?:(?:, | \| )[\w.]+)*", line[2:]).group()
            documented |= {f"{section}.{key}" for section in sections
                           for key in re.split(r", | \| ", names)}
    assert documented == KNOWN_KEYS


def test_schema_lists_exactly_the_quantizer_kinds():
    """The ``kind`` line of the quantizer section names ``quantizer.KINDS``."""
    text = (CONFIG_DIR / "schema.txt").read_text()
    line = re.search(r"^quant_p\. / quant_c\.\n  kind +(.*)$", text, re.M).group(1)
    assert set(line.split(" | ")) == set(KINDS)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("plant.mass = 3\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("plant.model cubic_nl2\n")


def test_overrides_apply_and_validate():
    cfg = parse_config_text("sim.h = 0.001\n")
    out = apply_overrides(cfg, ["sim.h=0.01", "sim.t_end=2"])
    assert out["sim.h"] == "0.01"
    assert out["sim.t_end"] == "2"
    assert "sim.h = 0.01" in format_config(out)
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(cfg, ["nope=1"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(cfg, ["sim.h"])


def test_worked_example_design_inputs():
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    params, m22, m11 = build_design_inputs(cfg)
    assert params.rho_p == 1.8 and params.nu_p == 0.0
    assert params.rho_c == 0.27 and params.nu_c == 0.49
    assert params.d1 == 0.3 and params.d2 == 0.2
    assert m22 ** 2 == pytest.approx(49.46)
    assert m11 == 0.16


def test_design_requires_exactly_one_m22_source():
    """``design.m22_sq`` is the one source of m22."""
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    del cfg["design.m22_sq"]
    with pytest.raises(ConfigError, match="missing required key design.m22_sq"):
        build_design_inputs(cfg)


def test_auto_margin_boundary_gives_zero_coupling_margin():
    """A margin multiplier of 1.0: m22^2 at its smallest admissible value."""
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    cfg["design.m22_sq"] = repr(min_m22_sq(build_design_inputs(cfg)[0]))
    _, result = run_design(cfg)
    assert result.margins["coupling"] == pytest.approx(0.0, abs=1e-12)
    assert not result.stability_ok


def test_scenario_round_trip():
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    sc = build_scenario(cfg)
    assert sc.plant.name == "cubic_nl2"
    assert list(sc.x0_plant) == [10.0, -14.0]
    assert sc.trigger_p.delta == 0.4
    assert sc.quant_p.step == 0.5
    assert sc.chan_pc.delay.t0 == 0.5
    assert sc.chan_cp.dropout.max_consecutive == 1
    assert sc.gains.m22 == pytest.approx(49.46 ** 0.5)
    assert sc.t_end == 20.0


def test_explicit_gains_bypass_synthesis():
    cfg = parse_config_text("""
    plant.model = cubic_nl2
    controller.model = firstorder_lead
    trigger_p.delta = 0.4
    trigger_c.delta = 0.15
    gains.m11 = 1.0
    gains.m21 = -2.0
    gains.m22 = 4.0
    sim.t_end = 0.5
    """)
    sc = build_scenario(cfg)
    assert sc.gains.m21 == -2.0


def test_missing_required_key():
    with pytest.raises(ConfigError, match="trigger_p.delta"):
        build_scenario(parse_config_text(
            "plant.model = cubic_nl2\ncontroller.model = firstorder_lead\n"))


def test_bad_number_reports_key():
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    cfg["sim.h"] = "fast"
    with pytest.raises(ConfigError, match="sim.h"):
        build_scenario(cfg)


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_negative_n_levels_is_a_config_error(tmp_path):
    """A negative level count puts the logarithmic cutoff u0 * density**n_levels
    above u0 (32 here), so every payload below it would go out as zero."""
    sets = ["sim.t_end=2", "quant_p.kind=logarithmic", "quant_p.density=0.5",
            "quant_p.n_levels=-5"]
    with pytest.raises(ConfigError, match="quant_p: n_levels must be >= 0, got -5"):
        build_scenario(apply_overrides(load_config(CONFIG_DIR / "worked_example.cfg"), sets))
    from etncs.cli import main

    args = ["simulate", "--config", str(CONFIG_DIR / "worked_example.cfg"),
            "--out", str(tmp_path)]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 1
    assert not (tmp_path / "events.csv").exists()


@pytest.mark.parametrize("limit", ["-1", "0", "-0.0"])
def test_non_positive_divergence_limit_is_a_config_error(tmp_path, limit):
    """A limit of 0 or below fails every state, so the run would abort at its
    first step as a divergence (exit 3) with a state norm that "exceeds" it."""
    sets = ["sim.t_end=0.5", f"sim.divergence_limit={limit}"]
    with pytest.raises(ConfigError, match="divergence_limit must be positive and finite"):
        build_scenario(apply_overrides(load_config(CONFIG_DIR / "worked_example.cfg"), sets))
    from etncs.cli import main

    args = ["simulate", "--config", str(CONFIG_DIR / "worked_example.cfg"),
            "--out", str(tmp_path)]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 1
    assert not (tmp_path / "events.csv").exists()
