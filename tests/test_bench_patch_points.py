"""The names the benchmark's span tracer patches still exist on the package.

``bench/spans.py`` wraps package functions and methods from outside the
package, by name, so a refactor that renames or moves one breaks only the
traced benchmark runs. These tests load the tracer from its file, unchanged,
and check its patch points against the package.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from survstrat.config import ExperimentConfig
from survstrat.metrics import build_time_grid
from survstrat.networks import Mlp, Model
from survstrat.tensor import Tensor
from survstrat.trainer import TrainState

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = ("cli", "trainer", "networks", "losses", "metrics", "data", "clustering", "tensor",
           "checkpoint")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_modules() -> dict:
    return {name: importlib.import_module(f"survstrat.{name}") for name in MODULES}


def siamese_per_cluster_model() -> Model:
    config = ExperimentConfig(siamese=True, heads="per-cluster", n_clusters=3, latent_dim=2,
                              encoder_hidden=(4,), head_hidden=(3,))
    model = Model(config, 3, 4)
    model.initialize()
    return model


def test_every_patched_name_is_defined_where_it_is_patched():
    # Patches.set reads the owner's own __dict__, so an inherited name does not count
    spans, modules = load_spans(), package_modules()
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans._MODULE_FUNCS
               if attr not in vars(modules[mod])]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in spans._METHODS
                if attr not in vars(getattr(modules[mod], cls))]
    missing += [name for owner, attr, name in [
        (modules["networks"].Mlp, "__call__", "networks.Mlp.__call__"),
        (modules["tensor"].Tensor, "backward", "tensor.Tensor.backward"),
    ] if attr not in vars(owner)]
    assert missing == []
    assert "_parents" in Tensor.__slots__


def test_every_mlp_layer_is_named_by_its_module():
    model = siamese_per_cluster_model()
    mlps = [model.encoders[0].trunk, *model.decoders, *model.heads]
    assert all(isinstance(m, Mlp) for m in mlps)
    for mlp in mlps:
        assert all(isinstance(layer.name, str) for layer in mlp.layers)
    assert all(head.layers[0].name.startswith("head") for head in model.heads)
    assert not any(m.layers[0].name.startswith("head") for m in mlps[:3])


def test_installed_tracer_records_a_forward_and_restores_the_package():
    spans, modules = load_spans(), package_modules()
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = spans.Tracer()
    patches = tracer.install(modules)
    try:
        model = siamese_per_cluster_model()
        x = Tensor(np.ones((4, 3)))
        outs = [model.encode(x, view=v) for v in (1, 2)]
        model.survival_forward(model.survival_input(x, outs), cluster_ids=[0, 1, 2, 0])
    finally:
        patches.restore()
    seen = {span[1] for span in tracer.spans}
    assert {"networks.encode", "networks.survival_forward", "networks.head"} <= seen
    assert {name: dict(vars(module)) for name, module in modules.items()} == before


def test_installed_tracer_sees_the_ibs_that_score_computes():
    # trainer.score imports integrated_brier_score per call, so the patched name is seen
    spans, modules = load_spans(), package_modules()
    rng = np.random.default_rng(0)
    t = rng.exponential(5.0, 30) + 0.1
    e = (rng.random(30) < 0.7).astype(int)
    grid = build_time_grid(t, e, 4)
    state = TrainState(model=None, optimizer=None, config=ExperimentConfig(), grid=grid,
                       train_times=t, train_events=e)
    pred = {"risk": -t, "survival": np.tile(np.linspace(1.0, 0.1, grid.n_bins), (30, 1))}
    tracer = spans.Tracer()
    patches = tracer.install(modules)
    try:
        modules["trainer"].score(state, pred, t, e)
    finally:
        patches.restore()
    seen = {span[1] for span in tracer.spans}
    assert {"metrics.concordance_index", "metrics.integrated_brier_score"} <= seen
