"""Beamspace multidimensional ESPRIT channel estimation and SLAC toolkit."""

from .channel import (BeamTransform, PathParams, Scenario, from_angular,
                      make_beam_transform, observe_and_estimate, params_from_geometry,
                      scenario_transforms, steering_vector, synth_beamspace_tensor,
                      to_angular)
from .esprit import EspritEstimate, esprit_pipeline, spatial_smooth
from .kernels import SvdResult, eig_general, pinv, svd_thin
from .perturbation import (PerturbationKit, analytic_param_rmse, analytic_pos_rmse,
                           build_kit)
from .slac import LocalizationResult, localize, localize_scenario, rate

__all__ = [
    "BeamTransform", "PathParams", "Scenario",
    "EspritEstimate", "SvdResult", "PerturbationKit",
    "LocalizationResult",
    "steering_vector", "params_from_geometry", "to_angular", "from_angular",
    "make_beam_transform", "scenario_transforms", "synth_beamspace_tensor",
    "observe_and_estimate", "esprit_pipeline", "spatial_smooth",
    "svd_thin", "eig_general", "pinv",
    "build_kit", "analytic_param_rmse", "analytic_pos_rmse",
    "localize", "localize_scenario", "rate",
]

__version__ = "0.1.0"
