"""Thermal physics substrate.

The paper's controller runs against real silicon; here the silicon is a
lumped-parameter RC thermal network (:mod:`repro.thermal.rc`) wrapped in
a CPU package model (:mod:`repro.thermal.package`) whose sink-to-air
resistance is set by the fan's airflow through a forced-convection
correlation (:mod:`repro.thermal.convection`).  A quantized, noisy
sensor (:mod:`repro.thermal.sensor`) emulates the lm-sensors readings
the paper sampled at 4 Hz.
"""

from .ambient import AmbientModel, ConstantAmbient
from .convection import ConvectionModel
from .multicore import MulticorePackage
from .package import CpuPackage, PackageParams
from .rc import RCNetwork, ThermalLink, ThermalNode
from .sensor import SensorParams, ThermalSensor

__all__ = [
    "ThermalNode",
    "ThermalLink",
    "RCNetwork",
    "ConvectionModel",
    "PackageParams",
    "CpuPackage",
    "MulticorePackage",
    "AmbientModel",
    "ConstantAmbient",
    "SensorParams",
    "ThermalSensor",
]
