"""Zero-trust Bayesian trust engine, finite-game solvers, and a deterministic
discrete-time access-control simulator.

`import ztsim` imports no submodule: each name below is imported from its
module on first use (PEP 562), so `ztsim.load_game` never loads the
simulator, and `ztsim.load_scenario` never loads the game solvers.
"""
__version__ = "0.1.0"

_EXPORTS = {
    "trust": (
        "BehaviorModel", "EvidenceModel", "Observation", "TrustState", "TypeSpace",
        "attenuate", "bayes_update", "compose_prior", "trust_score",
    ),
    "sim": (
        "EntitySpec", "Metrics", "PolicyConfig", "Profile", "Scenario", "SimTrace",
        "StepRecord", "compute_metrics", "policy_decide", "run", "step",
    ),
    "scenario": ("load_scenario", "parse_scenario"),
    "gamespec": ("load_game", "parse_game"),
    "trace": ("emit_trace",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__`, not importlib.import_module, so `-X importtime` lists the module.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
