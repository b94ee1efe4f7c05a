"""Domain-aware test-time adaptation with a reservoir of specialized models.

Public surface, by area:

* ``style`` — batch style fingerprints and threshold calibration
* ``clustering`` — online domain discovery over style vectors
* ``model_reservoir`` — per-domain parameter pool and ensembling
* ``tta`` — the adaptable classifier, the method records and their update rule
* ``theory`` — numerical checks of the parameter-variance analysis
* ``stream`` — synthetic domain streams and the episode engine
* ``seeding`` — one generator per key of small nonnegative ints
* ``config`` / ``cli`` — run configuration and the ``rtta`` command
"""

from . import clustering, config, errors, model_reservoir, seeding, stream, style, theory, tta

__version__ = "0.1.0"

__all__ = [
    "clustering",
    "config",
    "errors",
    "model_reservoir",
    "seeding",
    "stream",
    "style",
    "theory",
    "tta",
    "__version__",
]
