"""Secure reliable multicast protocols (E, 3T, ACT) as deterministic state
machines in a seeded discrete-event simulator, with Byzantine adversaries
and an analysis engine for the failure-probability and load formulas."""

from .core import (Ack, ForgeryAttemptError, KeyChain, MessageId,
                   MulticastMessage, ProtocolKind, Signature, digest,
                   message_digest)
from .quorum import (AckRule, InvalidParamsError, QuorumParams, accepts,
                     ack_rules, check_dissemination_properties,
                     dissemination_quorum_size, w3t, w_active)
from .protocols import (Deliver, Multicast, ProcessEngine, RaiseAlert, Send,
                        SetTimer, Setting, Timeouts, WireMessage)
from .adversary import Adversary
from .simnet import (ConfigError, RunReport, SimConfig, SimWorld, build_world,
                     run_world)
from .analysis import (AnalysisParams, bound_report, failure_free_load,
                       failure_load_bound, measured_load,
                       monte_carlo_conflict_rate, overall_conflict_bound,
                       p_faulty_active_set, p_kappa_c, probe_miss_exact,
                       probe_miss_probability, solve_min_cost_params)
from .tracecheck import check_trace, check_trace_file

__version__ = "0.1.0"
