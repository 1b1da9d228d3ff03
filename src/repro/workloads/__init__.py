"""Synthetic automotive application software (substitute for proprietary
customer code, per the reproduction rules in DESIGN.md)."""

from .body import BodyGatewayScenario
from .engine import EngineControlScenario
from .generator import SCENARIOS, Customer, CustomerGenerator
from .program import FunctionBuilder, ProgramBuilder
from . import micro
from .rtos import RtosScenario, TaskSpec
from .transmission import TransmissionScenario

__all__ = ["BodyGatewayScenario", "EngineControlScenario", "Customer",
           "CustomerGenerator", "FunctionBuilder", "ProgramBuilder", "micro",
           "RtosScenario", "SCENARIOS", "TaskSpec", "TransmissionScenario"]
