"""Synthetic repository generation for scaling experiments.

The builtin catalog is a few hundred packages; the paper's experiments run
against the full Spack repository (6 000+ packages) and the E4S buildcache
(60 000+ installed hashes).  This module generates synthetic packages with a
controllable size and dependency fan-out so the benchmark harness can sweep
problem sizes far beyond the hand-written catalog while keeping the same
structural features:

* a layered DAG (no cycles) with configurable out-degree;
* a fraction of packages that can reach the ``mpi`` virtual (reproducing the
  two-cluster structure of Figures 7a–7c);
* conditional dependencies, variants, and occasional conflicts;
* optional **seeded unsat injection** (``unsat_packages``): poisoned
  ``synth-unsat-*`` packages whose ``conflicts`` directives are jointly
  unsatisfiable but individually removable, with the planted ground-truth
  core recorded in :attr:`SyntheticRepoBuilder.planted` so the unsat
  scenario harness can assert that the explainer's extracted minimal
  conflict core equals exactly what was planted.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.spack.directives import conflicts, depends_on, provides, variant, version
from repro.spack.package import Package, PackageBase, PackageMeta
from repro.spack.repo import Repository


def _make_package_class(
    name: str,
    versions: Sequence[str],
    variants: Sequence[Tuple[str, bool]],
    dependencies: Sequence[Tuple[str, Optional[str]]],
    provided: Sequence[str] = (),
    conflict_specs: Sequence[str] = (),
) -> Type[PackageBase]:
    """Create one synthetic package class through the normal directive machinery."""
    for version_string in versions:
        version(version_string)
    for variant_name, default in variants:
        variant(variant_name, default=default, description=f"synthetic variant {variant_name}")
    for dependency, when in dependencies:
        depends_on(dependency, when=when)
    for virtual in provided:
        provides(virtual)
    for conflict_spec in conflict_specs:
        conflicts(conflict_spec)
    cls = PackageMeta(f"Synthetic_{name.replace('-', '_')}", (Package,), {"name": name})
    # Register the class as a real module attribute: dynamically created
    # classes are only picklable when ``pickle`` can resolve them by
    # ``__module__.__qualname__``, and a pickled base program references
    # these classes through its spec graph.  Same-name
    # rebuilds (same seed) simply re-register an equivalent class.
    cls.__module__ = __name__
    cls.__qualname__ = cls.__name__
    setattr(sys.modules[__name__], cls.__name__, cls)
    return cls


@dataclass(frozen=True)
class PlantedConflict:
    """Ground truth for one poisoned package's injected unsatisfiability.

    ``conflict_specs`` are the raw directive arguments (usable as
    ``omit_planted`` entries to relax one member), ``directives`` the
    rendered directive strings — exactly what
    :class:`~repro.spack.errors.ConstraintProvenance.directive` reports for
    them, so scenario tests compare extracted cores against planted ones
    string-for-string.
    """

    package: str
    conflict_specs: Tuple[str, ...]
    directives: Tuple[str, ...]


class SyntheticRepoBuilder:
    """Generates a layered synthetic repository.

    Parameters
    ----------
    num_packages:
        total number of synthetic packages (excluding the MPI providers)
    max_dependencies:
        maximum out-degree of a package (dependencies go to lower layers only,
        so the result is a DAG)
    layers:
        number of layers; packages in layer 0 have no dependencies
    mpi_fraction:
        fraction of packages (in the upper half of the layering) that depend
        on the ``mpi`` virtual — these form the "can reach MPI" cluster
    conditional_fraction:
        fraction of dependency edges guarded by a variant condition
    seed:
        RNG seed (generation is fully deterministic for a given seed)
    unsat_packages:
        number of poisoned ``synth-unsat-NNNN`` packages to plant.  Each
        carries ``unsat_conflicts`` versions and one ``conflicts("@V")``
        directive per version: every version is forbidden, so concretizing
        the package is UNSAT, and removing any *single* directive frees its
        version — the directives are a minimal unsatisfiable set by
        construction.  Ground truth lands in :attr:`planted` after
        :meth:`build`.  Planting consumes no RNG draws, so the regular
        catalog is bit-identical with the knob on or off.
    unsat_conflicts:
        size of each planted core (>= 2)
    omit_planted:
        ``(package, conflict_spec)`` pairs to *skip* at plant time — the
        minimality oracle: rebuilding a scenario with one planted member
        omitted must flip the package to SAT.  Omission consumes no RNG
        draws either.
    """

    def __init__(
        self,
        num_packages: int = 200,
        max_dependencies: int = 5,
        layers: int = 8,
        mpi_fraction: float = 0.35,
        conditional_fraction: float = 0.3,
        num_providers: int = 2,
        seed: int = 42,
        unsat_packages: int = 0,
        unsat_conflicts: int = 2,
        omit_planted: Sequence[Tuple[str, str]] = (),
    ):
        self.num_packages = num_packages
        self.max_dependencies = max_dependencies
        self.layers = max(2, layers)
        self.mpi_fraction = mpi_fraction
        self.conditional_fraction = conditional_fraction
        self.num_providers = max(1, num_providers)
        self.random = random.Random(seed)
        self.unsat_packages = max(0, unsat_packages)
        self.unsat_conflicts = max(2, unsat_conflicts)
        self.omit_planted = frozenset(omit_planted)
        #: ground truth recorded by :meth:`build`: poisoned package name ->
        #: :class:`PlantedConflict`
        self.planted: Dict[str, PlantedConflict] = {}

    # ------------------------------------------------------------------

    def _package_name(self, index: int) -> str:
        return f"synth-{index:04d}"

    def _layer_of(self, index: int) -> int:
        return index * self.layers // max(1, self.num_packages)

    def build(self, name: str = "synthetic") -> Repository:
        repo = Repository(name=name)

        # MPI providers (layer 0, no dependencies).
        provider_names = [f"synth-mpi-{i}" for i in range(self.num_providers)]
        for provider in provider_names:
            cls = _make_package_class(
                provider,
                versions=["2.0.0", "1.0.0"],
                variants=[("shared", True)],
                dependencies=[],
                provided=["mpi"],
            )
            repo.add(cls)

        names = [self._package_name(i) for i in range(self.num_packages)]
        layers: Dict[int, List[str]] = {}
        for index, name_ in enumerate(names):
            layers.setdefault(self._layer_of(index), []).append(name_)

        for index, package_name in enumerate(names):
            layer = self._layer_of(index)
            versions = self._versions(index)
            variants = self._variants(index)
            dependencies: List[Tuple[str, Optional[str]]] = []

            if layer > 0:
                candidate_pool = [
                    other
                    for other_layer in range(layer)
                    for other in layers.get(other_layer, [])
                ]
                count = self.random.randint(0, min(self.max_dependencies, len(candidate_pool)))
                for dependency in self.random.sample(candidate_pool, count):
                    when = None
                    if variants and self.random.random() < self.conditional_fraction:
                        when = f"+{variants[0][0]}"
                    dependencies.append((dependency, when))

            # upper-layer packages may depend on MPI (two-cluster structure)
            if layer >= self.layers // 2 and self.random.random() < self.mpi_fraction:
                dependencies.append(("mpi", None))

            conflict_specs = []
            if self.random.random() < 0.05:
                conflict_specs.append("%intel")

            cls = _make_package_class(
                package_name,
                versions=versions,
                variants=variants,
                dependencies=dependencies,
                conflict_specs=conflict_specs,
            )
            repo.add(cls)

        self._plant_unsat(repo, names)
        repo.set_provider_preference("mpi", provider_names)
        return repo

    def _plant_unsat(self, repo: Repository, names: Sequence[str]):
        """Append the poisoned packages (deterministic, RNG-free)."""
        self.planted = {}
        for index in range(self.unsat_packages):
            package_name = f"synth-unsat-{index:04d}"
            versions = [f"{self.unsat_conflicts - j}.0.0" for j in range(self.unsat_conflicts)]
            conflict_specs = [f"@{version_string}" for version_string in versions]
            kept = [
                spec
                for spec in conflict_specs
                if (package_name, spec) not in self.omit_planted
            ]
            # one RNG-free dependency into the regular catalog, so planted
            # scenarios exercise real grounding work, not toy islands
            dependencies: List[Tuple[str, Optional[str]]] = []
            if names:
                dependencies.append((names[(index * 7) % len(names)], None))
            cls = _make_package_class(
                package_name,
                versions=versions,
                variants=[],
                dependencies=dependencies,
                conflict_specs=kept,
            )
            repo.add(cls)
            self.planted[package_name] = PlantedConflict(
                package=package_name,
                conflict_specs=tuple(kept),
                directives=tuple(d.directive_string() for d in cls.conflict_decls),
            )

    # ------------------------------------------------------------------

    def _versions(self, index: int) -> List[str]:
        count = 1 + (index % 4)
        major = 1 + index % 3
        return [f"{major}.{minor}.0" for minor in range(count, 0, -1)]

    def _variants(self, index: int) -> List[Tuple[str, bool]]:
        count = index % 3
        return [(f"opt{i}", bool((index + i) % 2)) for i in range(count)]


def generate_repository(
    num_packages: int = 200,
    max_dependencies: int = 5,
    seed: int = 42,
    **kwargs,
) -> Repository:
    """Convenience wrapper around :class:`SyntheticRepoBuilder`."""
    builder = SyntheticRepoBuilder(
        num_packages=num_packages, max_dependencies=max_dependencies, seed=seed, **kwargs
    )
    return builder.build()
