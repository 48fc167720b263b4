"""Per-particle views of a ``Population``, for tests written per particle.

A ``Particle`` is a copy of one slot: ``population_of`` builds a
population from particles and ``particles_of`` copies every slot back
out. ``execute_particles`` converts at the edges: it steps a
``Population`` built from the particles, then copies each slot back into
its particle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from steersmc import Population, Vocabulary, as_model_set, execute_step
from steersmc.steering import ACTIVE


@dataclass(slots=True)
class Particle:
    """One candidate generation with an accumulated weight: a copy of
    one slot of a ``Population``, whose ``text`` is decoded from its
    tokens (``population_of`` reads the tokens, not ``text``) and whose
    ``status`` is one of the codes of ``steersmc.steering``."""

    tokens: list[int] = field(default_factory=list)
    text: str = ""
    log_weight: float = 0.0
    status: int = ACTIVE
    hint_buffer: list[str] = field(default_factory=list)
    error: Exception | None = None


def population_of(particles, vocabulary: Vocabulary) -> Population:
    """A population holding a copy of each particle, in order."""
    pop = Population(len(particles), vocabulary,
                     max((len(p.tokens) for p in particles), default=0))
    chars = vocabulary.token_lengths()
    for i, p in enumerate(particles):
        pop.tokens[i, :len(p.tokens)] = p.tokens
        pop.lengths[i], pop.text_lengths[i] = len(p.tokens), chars[p.tokens].sum()
        pop.log_weights[i], pop.status[i] = p.log_weight, p.status
        pop.hint_ids[i] = pop.intern(tuple(p.hint_buffer))
        if p.error is not None:
            pop.errors[i] = p.error
    return pop


def particles_of(pop: Population) -> list[Particle]:
    """A copy of every slot as a Particle, in slot order."""
    out = []
    for slot in range(len(pop)):
        tokens = pop.tokens[slot, :pop.lengths[slot]].tolist()
        out.append(Particle(tokens, pop.vocabulary.decode(tokens),
                            float(pop.log_weights[slot]), int(pop.status[slot]),
                            list(pop.hint_sets[pop.hint_ids[slot]]), pop.errors.get(slot)))
    return out


def execute_particles(plan, index, particles, models, keys, deadline=None):
    """``execute_step`` over these particles, each updated in place from
    its slot; returns the step's update."""
    population = population_of(particles, as_model_set(models).vocabulary)
    update = execute_step(plan, index, population, models, keys, deadline=deadline)
    for particle, stepped in zip(particles, particles_of(population)):
        for f in fields(Particle):
            setattr(particle, f.name, getattr(stepped, f.name))
    return update
