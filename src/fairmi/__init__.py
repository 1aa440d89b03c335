"""Fairness-aware deep clustering with information-theoretic objectives."""

__version__ = "0.1.0"

# Attribute -> defining submodule. Resolution is lazy (PEP 562) so that light
# entry points (scoring a CSV of labels) never pay for the autodiff stack.
_EXPORTS = {
    "ClusterCenters": "clustering",
    "SoftAssignment": "clustering",
    "kmeans": "clustering",
    "soft_assign": "clustering",
    "Dataset": "data",
    "SyntheticSpec": "data",
    "generate_synthetic": "data",
    "load_csv": "data",
    "minibatches": "data",
    "MetricsReport": "metrics",
    "accuracy": "metrics",
    "balance": "metrics",
    "f_beta": "metrics",
    "full_report": "metrics",
    "mnce": "metrics",
    "nmi": "metrics",
    "ModelParams": "model",
    "encode": "model",
    "init_params": "model",
    "load_checkpoint": "model",
    "save_checkpoint": "model",
    "conditional_mi": "objectives",
    "group_cluster_mi": "objectives",
    "EpochLog": "trainer",
    "TrainConfig": "trainer",
    "evaluate": "trainer",
    "fit": "trainer",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache so later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
