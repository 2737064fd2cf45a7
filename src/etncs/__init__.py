"""Event-triggered networked control: design formulas plus a deterministic
closed-loop simulator with delayed, quantized, lossy links."""

from .core import (PassivityIndices, SystemModel, Trajectory,
                   dissipativity_residuals, l2_gain_estimate, rk4_step,
                   simulate_open_loop, supply_rate, verify_lti_indices)
from .design import (DesignParams, DesignResult, InfeasibleDesign,
                     TransformGains, cone_apex_angle, effective_damping,
                     interevent_bound_controller, interevent_bound_plant,
                     l2_gain_bounds, min_m22_sq, stability_margins, synthesize)
from .network import Channel, DelayProfile, DropoutModel, rate_bound_check
from .quantizer import QuantizerSpec, quantize, sector_certificate
from .sim import (ChannelConfig, DivergenceError, ScenarioConfig, TraceLog,
                  compute_metrics, run_scenario)
from .signals import SignalSpec
from .trigger import TriggerConfig, check_violation, sampled_output_bound_check

__version__ = "0.1.0"
