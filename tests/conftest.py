import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from avq360 import synthetic
from avq360.model import ModelConfig

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Synthetic desk-scale corpus, generated once per session."""
    d = tmp_path_factory.mktemp("corpus")
    synthetic.generate_corpus(d)
    return d


def tiny_model_config(**overrides) -> ModelConfig:
    """The smallest architecture the gradient-check criteria prescribe:
    d_model 8, 2 fusion blocks, 2 bands, 2 frames."""
    kwargs = dict(
        bands=2,
        band_channels=(2, 3),
        d_model=8,
        fusion_blocks=2,
        heads=2,
        audio_channels=(1, 2, 2, 3),
        frames_per_clip=2,
        seed=7,
    )
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def tiny_features(seed=0, t=2, m=2, p=2):
    """Random preprocessed features matching tiny_model_config."""
    from avq360.model import SequenceFeatures

    rng = np.random.default_rng(seed)
    prior = rng.uniform(0.5, 1.5, size=m)
    return SequenceFeatures(
        video=rng.uniform(0.0, 1.0, size=(t, m, 16, 32)),
        audio=rng.normal(-2.0, 1.5, size=(p, 96, 64)),
        lat_prior=prior / prior.sum(),
    )
