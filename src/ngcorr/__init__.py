"""Correlation and non-Gaussian-correlation measures for two-mode bosonic
states in truncated Fock space.

The package computes entropic, geometric, and fidelity-based mutual
informations, their deltas against the Gaussian reference state with the
same first and second moments, and distance/fidelity measures of
non-Gaussian correlation built from averaged target/reference states.
The top level holds the entry points of the README's library tour; the
rest lives in the submodules (``ngcorr.fock``, ``ngcorr.gaussian``, ...).
"""

from .channels import apply_loss
from .errors import NGCorrError
from .gaussian import gaussian_mi, moments_from_fock, reference_gaussian_fock
from .measures import delta_ng, mutual_information, ng_correlation
from .states import StateSpec, make_state

__version__ = "1.0.0"
