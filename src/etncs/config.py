"""Flat key-value scenario configuration.

The file format is one dotted key per line, ``section.key = value``, with
``#`` comments and blank lines ignored.  Values are numbers, bare words, or
comma-separated number lists.  See configs/schema.txt for the full key
reference.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .design import DesignParams, DesignResult, InfeasibleDesign, TransformGains, synthesize
from .models import build_model, lti_siso
from .network import DelayProfile, DropoutModel, rate_bound_check
from .quantizer import QuantizerSpec
from .signals import SignalSpec
from .sim import ChannelConfig, ScenarioConfig
from .trigger import TriggerConfig

__all__ = [
    "ConfigError",
    "parse_config_text",
    "load_config",
    "apply_overrides",
    "format_config",
    "build_design_inputs",
    "run_design",
    "feasible_design",
    "build_scenario",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


# the keys of each pair of sections, which share them, and of the other sections
KNOWN_KEYS = {f"{section}.{key}" for sections, keys in (
    (("plant", "controller"), "model x0 nu rho a b c d"),
    (("trigger_p", "trigger_c"), "delta"),
    (("quant_p", "quant_c"), "kind step density a b u0 n_levels"),
    (("chan_pc", "chan_cp"), "T0 d form table initial_hold dropout.kind dropout.p "
                             "dropout.seed dropout.pattern dropout.max_consecutive"),
    (("w1", "w2"), "kind value lo hi dwell seed amplitude freq phase"),
    (("design",), "alpha gamma m22_sq m11"),
    (("gains",), "m11 m21 m22"),
    (("sim",), "t_end h drop_first_allowed divergence_limit"),
) for section in sections for key in keys.split()}


def parse_config_text(text: str) -> Dict[str, str]:
    cfg: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path) -> Dict[str, str]:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def apply_overrides(cfg: Dict[str, str], overrides: Sequence[str]) -> Dict[str, str]:
    """Apply ``key=value`` strings on top of a parsed config."""
    out = dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"override uses unknown key {key!r}")
        out[key] = value
    return out


def format_config(cfg: Dict[str, str]) -> str:
    return "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg)) + "\n"


def _get_float(cfg, key, default=None) -> Optional[float]:
    if key not in cfg:
        return default
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {cfg[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {cfg[key]!r}")
    return value


def _require_float(cfg, key) -> float:
    v = _get_float(cfg, key)
    if v is None:
        raise ConfigError(f"missing required key {key}")
    return v


def _get_int(cfg, key, default=None) -> Optional[int]:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}") from exc


def _get_bool(cfg, key, default=False) -> bool:
    if key not in cfg:
        return default
    v = cfg[key].lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {cfg[key]!r}")


def _get_floats(cfg, key) -> Optional[np.ndarray]:
    if key not in cfg:
        return None
    try:
        values = np.array([float(v) for v in cfg[key].split(",") if v.strip()])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated numbers") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key}: expected finite numbers, got {cfg[key]!r}")
    return values


def _build_system(cfg: Dict[str, str], section: str):
    name = cfg.get(f"{section}.model")
    if name is None:
        raise ConfigError(f"missing required key {section}.model")
    nu = _get_float(cfg, f"{section}.nu")
    rho = _get_float(cfg, f"{section}.rho")
    if name == "lti":
        return lti_siso(_require_float(cfg, f"{section}.a"),
                        _require_float(cfg, f"{section}.b"),
                        _require_float(cfg, f"{section}.c"),
                        _require_float(cfg, f"{section}.d"),
                        nu=nu if nu is not None else 0.0,
                        rho=rho if rho is not None else 0.0,
                        name=f"{section}-lti")
    try:
        return build_model(name, nu=nu, rho=rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_quantizer(cfg: Dict[str, str], section: str) -> QuantizerSpec:
    kind = cfg.get(f"{section}.kind", "identity")
    a = _get_float(cfg, f"{section}.a", 0.0)
    b = _get_float(cfg, f"{section}.b", 2.0)
    if kind == "identity":
        a = _get_float(cfg, f"{section}.a", 1.0)
        b = _get_float(cfg, f"{section}.b", 1.0)
    try:
        return QuantizerSpec(kind=kind,
                             step=_get_float(cfg, f"{section}.step", 0.0),
                             density=_get_float(cfg, f"{section}.density", 0.0),
                             sector=(a, b),
                             u0=_get_float(cfg, f"{section}.u0", 1.0),
                             n_levels=_get_int(cfg, f"{section}.n_levels", 40))
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _build_channel(cfg: Dict[str, str], section: str) -> ChannelConfig:
    form = cfg.get(f"{section}.form", "affine")
    table: Tuple[Tuple[float, float], ...] = ()
    if form == "table":
        pairs = _get_floats(cfg, f"{section}.table")
        if pairs is None or len(pairs) % 2:
            raise ConfigError(f"{section}.table: expected t1,T1,t2,T2,... pairs")
        table = tuple((pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2))
    kind = cfg.get(f"{section}.dropout.kind", "none")
    pattern: Tuple[int, ...] = ()
    if kind == "pattern":
        bits = cfg.get(f"{section}.dropout.pattern", "")
        if not bits or any(ch not in "01" for ch in bits):
            raise ConfigError(
                f"{section}.dropout.pattern: expected a 0/1 string (1 = deliver)")
        pattern = tuple(int(ch) for ch in bits)
    try:
        delay = DelayProfile(t0=_get_float(cfg, f"{section}.T0", 0.0),
                             d=_get_float(cfg, f"{section}.d", 0.0),
                             form=form, table=table)
        dropout = DropoutModel(kind=kind,
                               p=_get_float(cfg, f"{section}.dropout.p", 0.0),
                               seed=_get_int(cfg, f"{section}.dropout.seed", 0),
                               pattern=pattern,
                               max_consecutive=_get_int(
                                   cfg, f"{section}.dropout.max_consecutive", None))
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    # slopes between breakpoints are what can break FIFO delivery; the
    # channel checks this too, but only once a run has started
    if form == "table" and not rate_bound_check(delay, [p[0] for p in table]):
        raise ConfigError(f"{section}: delay table violates its declared rate bound {delay.d}")
    return ChannelConfig(delay=delay, dropout=dropout,
                         initial_hold=_get_float(cfg, f"{section}.initial_hold", 0.0))


def _build_signal_spec(cfg: Dict[str, str], section: str) -> SignalSpec:
    kind = cfg.get(f"{section}.kind", "zero")
    try:
        return SignalSpec(kind=kind,
                          value=_get_float(cfg, f"{section}.value", 0.0),
                          lo=_get_float(cfg, f"{section}.lo", 0.0),
                          hi=_get_float(cfg, f"{section}.hi", 1.0),
                          dwell=_get_float(cfg, f"{section}.dwell", 0.1),
                          seed=_get_int(cfg, f"{section}.seed", 0),
                          amplitude=_get_float(cfg, f"{section}.amplitude", 1.0),
                          freq=_get_float(cfg, f"{section}.freq", 1.0),
                          phase=_get_float(cfg, f"{section}.phase", 0.0))
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def build_design_inputs(cfg: Dict[str, str]) -> Tuple[DesignParams, float, float]:
    """Assemble (params, m22, m11) from the config's design-relevant keys."""
    plant = _build_system(cfg, "plant")
    controller = _build_system(cfg, "controller")
    try:
        params = DesignParams(
            rho_p=plant.indices.rho, nu_p=plant.indices.nu,
            rho_c=controller.indices.rho, nu_c=controller.indices.nu,
            delta_p=_require_float(cfg, "trigger_p.delta"),
            delta_c=_require_float(cfg, "trigger_c.delta"),
            alpha=_get_float(cfg, "design.alpha", 1.0),
            gamma=_get_float(cfg, "design.gamma", 250.0),
            b_p=_build_quantizer(cfg, "quant_p").sector[1],
            b_c=_build_quantizer(cfg, "quant_c").sector[1],
            d1=_get_float(cfg, "chan_pc.d", 0.0),
            d2=_get_float(cfg, "chan_cp.d", 0.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    m22_sq = _require_float(cfg, "design.m22_sq")
    if m22_sq <= 0:
        raise ConfigError("design.m22_sq must be positive")
    return params, math.sqrt(m22_sq), _require_float(cfg, "design.m11")


def run_design(cfg: Dict[str, str]) -> Tuple[DesignParams, DesignResult]:
    """Synthesize the config's design; a ValueError other than InfeasibleDesign
    (say, ``design.m11 = 0``) or an ArithmeticError (``design.m11 = 1e308``
    overflows, ``trigger_p.delta = 1e-320`` divides by zero) is a ConfigError."""
    params, m22, m11 = build_design_inputs(cfg)
    try:
        return params, synthesize(params, m22, m11)
    except InfeasibleDesign:
        raise
    except ValueError as exc:
        raise ConfigError(f"design: {exc}") from exc
    except ArithmeticError as exc:
        raise ConfigError(f"design: a config value is out of range for the design "
                          f"formulas ({type(exc).__name__})") from exc


def feasible_design(cfg: Dict[str, str]
                    ) -> Tuple[Optional[DesignParams], Optional[DesignResult]]:
    """``run_design``, or ``(None, None)`` if the config has no feasible
    design or the run does not use it: explicit ``gains.*`` replace the
    synthesized gains, so no design verdict rests on the design keys."""
    if "gains.m22" in cfg:
        return None, None
    try:
        return run_design(cfg)
    except (ConfigError, InfeasibleDesign):
        return None, None


def _build_gains(cfg: Dict[str, str]) -> TransformGains:
    if "gains.m22" in cfg:
        try:
            return TransformGains(m11=_require_float(cfg, "gains.m11"),
                                  m21=_require_float(cfg, "gains.m21"),
                                  m22=_require_float(cfg, "gains.m22"))
        except ValueError as exc:
            raise ConfigError(f"gains: {exc}") from exc
    _, result = run_design(cfg)
    return result.gains


def build_scenario(cfg: Dict[str, str]) -> ScenarioConfig:
    plant = _build_system(cfg, "plant")
    controller = _build_system(cfg, "controller")
    x0_p = _get_floats(cfg, "plant.x0")
    x0_c = _get_floats(cfg, "controller.x0")
    if x0_p is None:
        x0_p = np.zeros(plant.state_dim)
    if x0_c is None:
        x0_c = np.zeros(controller.state_dim)
    try:
        return ScenarioConfig(
            plant=plant, controller=controller,
            x0_plant=x0_p, x0_controller=x0_c,
            trigger_p=TriggerConfig(_require_float(cfg, "trigger_p.delta")),
            trigger_c=TriggerConfig(_require_float(cfg, "trigger_c.delta")),
            quant_p=_build_quantizer(cfg, "quant_p"),
            quant_c=_build_quantizer(cfg, "quant_c"),
            chan_pc=_build_channel(cfg, "chan_pc"),
            chan_cp=_build_channel(cfg, "chan_cp"),
            gains=_build_gains(cfg),
            w1=_build_signal_spec(cfg, "w1"),
            w2=_build_signal_spec(cfg, "w2"),
            t_end=_get_float(cfg, "sim.t_end", 20.0),
            h=_get_float(cfg, "sim.h", 1e-3),
            drop_first_allowed=_get_bool(cfg, "sim.drop_first_allowed", False),
            divergence_limit=_get_float(cfg, "sim.divergence_limit", 1e9))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
