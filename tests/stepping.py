"""Stepping lists of ``Particle`` views, for tests written per particle.

``execute_particles`` converts at the edges: it steps a ``Population``
built from the particles, then copies each slot back into its particle.
"""

from __future__ import annotations

from dataclasses import fields

from steersmc import Particle, Population, execute_step


def execute_particles(plan, index, particles, models, keys, deadline=None):
    """``execute_step`` over these particles, each updated in place from
    its slot; returns the step's update."""
    population = Population.of(particles)
    update = execute_step(plan, index, population, models, keys, deadline=deadline)
    for particle, stepped in zip(particles, population):
        for f in fields(Particle):
            setattr(particle, f.name, getattr(stepped, f.name))
    return update
