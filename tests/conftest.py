"""Shared fixtures: cost models, configurations, built images, instances."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.config import CompartmentSpec, SafetyConfig
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.hw.costs import CostModel

# A deeper, reproducible Hypothesis run for CI jobs that opt in with
# ``--hypothesis-profile=ci``; the default profile keeps tier-1 fast.
settings.register_profile("ci", max_examples=2000, derandomize=True)


@pytest.fixture
def costs():
    return CostModel.xeon_4114()


@pytest.fixture
def machine(costs):
    return Machine(costs)


def make_config(mechanism="intel-mpk", isolate=("lwip",), hardening=None,
                sharing="dss", mpk_gate="full", n_extra=1):
    """A config isolating ``isolate`` libraries in extra compartment(s)."""
    specs = [CompartmentSpec("comp1", mechanism=mechanism, default=True)]
    assignment = {}
    if n_extra == 1:
        specs.append(CompartmentSpec(
            "comp2", mechanism=mechanism,
            hardening=hardening or (),
        ))
        for lib in isolate:
            assignment[lib] = "comp2"
    else:
        for i, lib in enumerate(isolate):
            name = "comp%d" % (i + 2)
            specs.append(CompartmentSpec(
                name, mechanism=mechanism, hardening=hardening or (),
            ))
            assignment[lib] = name
    return SafetyConfig(specs, assignment, sharing=sharing,
                        mpk_gate=mpk_gate)


@pytest.fixture
def mpk_config():
    return make_config()


@pytest.fixture
def ept_config():
    return make_config(mechanism="vm-ept")


@pytest.fixture
def none_config():
    return SafetyConfig(
        [CompartmentSpec("comp1", mechanism="none", default=True)], {},
    )


@pytest.fixture
def mpk_image(mpk_config):
    return build_image(mpk_config)


@pytest.fixture
def mpk_instance(mpk_image, machine):
    return FlexOSInstance(mpk_image, machine=machine).boot()


@pytest.fixture
def ept_instance(ept_config, machine):
    return FlexOSInstance(build_image(ept_config), machine=machine).boot()


@pytest.fixture
def none_instance(none_config, machine):
    return FlexOSInstance(build_image(none_config), machine=machine).boot()
