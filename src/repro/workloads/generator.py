"""Customer-profile generator.

Paper Section 4: "different customers are using the same microcontroller in
different ways to solve the same application problem.  This is done by a
different HW/SW split, by sometimes completely different algorithms and by
using on chip resources (CPU, PCP, DMA, timer cells, etc.) in a different
way."

The generator produces a deterministic population of synthetic customers:
each is one of the three application domains with its own parameterisation
(HW/SW split flags, event rates, table localities, code size).  Experiment
E9 profiles all of them and checks that the architect's option ranking is
derived from the *population*, not one customer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from .body import BodyGatewayScenario
from .engine import EngineControlScenario
from .rtos import RtosScenario
from .transmission import TransmissionScenario


@dataclass
class Customer:
    """One synthetic customer: a scenario plus their unique parameter set."""

    name: str
    domain: str
    scenario: object
    params: Dict

    def build(self, config, seed: int = 2008):
        return self.scenario.build(config, self.params, seed)


def _engine_params(rng: random.Random) -> Dict:
    return {
        "rpm": rng.choice([2500, 3500, 4500, 5500, 6500]),
        "teeth": rng.choice([36, 60]),
        "adc_khz": rng.choice([10, 25, 50]),
        "can_msgs_per_s": rng.choice([1000, 2000, 4000]),
        "knock_taps": rng.choice([8, 16, 32, 64]),
        "use_pcp": rng.random() < 0.7,
        "use_dma": rng.random() < 0.7,
        "background_blocks": rng.choice([40, 56, 64, 80]),
        "table_locality": rng.choice([0.75, 0.85, 0.9, 0.95]),
    }


def _transmission_params(rng: random.Random) -> Dict:
    return {
        "control_khz": rng.choice([1, 2, 4]),
        "shaft_hz": rng.choice([400, 900, 1800]),
        "use_pcp": rng.random() < 0.6,
        "background_blocks": rng.choice([24, 40, 56]),
        "table_locality": rng.choice([0.7, 0.85, 0.92]),
    }


def _body_params(rng: random.Random) -> Dict:
    return {
        "can_buses": rng.choice([2, 3, 4]),
        "msgs_per_s": rng.choice([2000, 4000, 8000]),
        "routing_table_entries": rng.choice([512, 1024, 4096]),
        "use_dma": rng.random() < 0.8,
        "background_blocks": rng.choice([12, 16, 24]),
        "table_locality": rng.choice([0.4, 0.6, 0.8]),
    }


def _rtos_params(rng: random.Random) -> Dict:
    return {
        "tick_us": rng.choice([100, 250, 500]),
        "can_msgs_per_s": rng.choice([500, 1500, 3000]),
        "idle_blocks": rng.choice([4, 6, 10]),
    }


_DOMAINS = (
    ("engine", EngineControlScenario, _engine_params),
    ("transmission", TransmissionScenario, _transmission_params),
    ("body", BodyGatewayScenario, _body_params),
    ("rtos", RtosScenario, _rtos_params),
)

#: a customer's or campaign job's ``domain`` key -> its scenario class
SCENARIOS = {domain: cls for domain, cls, _ in _DOMAINS}


class CustomerGenerator:
    """Deterministic population of synthetic customers."""

    def __init__(self, seed: int = 42,
                 domain_mix=(0.45, 0.25, 0.15, 0.15)) -> None:
        """``domain_mix`` weights engine/transmission/body/rtos customers —
        powertrain-heavy by default, matching an automotive supplier base."""
        if len(domain_mix) != len(_DOMAINS):
            raise ValueError(
                f"domain_mix needs {len(_DOMAINS)} weights")
        self.seed = seed
        self.domain_mix = domain_mix

    def generate(self, count: int) -> List[Customer]:
        rng = random.Random(self.seed)
        customers: List[Customer] = []
        for index in range(count):
            domain, scenario_cls, param_fn = rng.choices(
                _DOMAINS, weights=self.domain_mix)[0]
            params = param_fn(rng)
            customers.append(Customer(
                name=f"customer{index:02d}_{domain}",
                domain=domain,
                scenario=scenario_cls(),
                params=params,
            ))
        return customers
