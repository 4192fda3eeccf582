"""Cross-system federation: a mediator routing workload statements
across the evaluated systems, with an online routing advisor."""

from repro.errors import FederationError, FederationWriteHazardError
from repro.federation.advisor import RouteDecision, RoutingAdvisor
from repro.federation.mediator import Mediator, RouteRecord
from repro.federation.session import FederatedSession

__all__ = [
    "FederatedSession",
    "FederationError",
    "FederationWriteHazardError",
    "Mediator",
    "RouteDecision",
    "RouteRecord",
    "RoutingAdvisor",
]
