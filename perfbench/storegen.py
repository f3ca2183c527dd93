"""Seeded installed-package store, synthesized without the solver.

A real build cache holds specs that some earlier concretizer produced.  This
module fakes one directly from the package recipes: every node picks a
declared version and variant values, follows the ``depends_on`` directives
whose ``when=`` holds, and picks a provider for each virtual.  The result is
a realistic mix: most installs match the default platform and compiler and
are reusable, a share were built for other targets, OSes or compilers and
are not.  Nothing here calls the concretizer, so building the store costs
milliseconds per spec.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

from repro.spack.spec import Spec
from repro.spack.store import Database

#: (target, os, compiler, compiler version) an install was built for.  The
#: first entry is the default platform of the requests, so installs built for
#: it can be reused; the others are buildcache noise the solver must reject.
CONFIGURATIONS: Tuple[Tuple[str, str, str, str], ...] = (
    ("skylake", "rhel7", "gcc", "11.2.0"),
    ("skylake", "rhel7", "gcc", "11.2.0"),
    ("skylake", "rhel7", "gcc", "10.3.1"),
    ("broadwell", "rhel7", "gcc", "11.2.0"),
    ("haswell", "centos8", "gcc", "11.2.0"),
    ("x86_64", "ubuntu20.04", "clang", "14.0.6"),
)


class _Builder:
    def __init__(self, repo, rng: random.Random, configuration):
        self.repo = repo
        self.rng = rng
        self.target, self.os, self.compiler, self.compiler_version = configuration
        self.nodes: Dict[str, Spec] = {}
        self.open: set = set()

    def node(self, name: str, constraint: Optional[Spec] = None) -> Spec:
        if self.repo.is_virtual(name):
            name = self.rng.choice(self.repo.providers_for(name))
            constraint = None
        existing = self.nodes.get(name)
        if existing is not None:
            return existing
        cls = self.repo.get(name)
        versions = cls.declared_versions()
        if constraint is not None and not constraint.versions.is_any:
            allowed = [v for v in versions if constraint.versions.includes(v)]
            versions = allowed or versions
        version = versions[0] if self.rng.random() < 0.5 else self.rng.choice(versions)
        variants = {}
        for variant_name, decl in sorted(cls.variants.items()):
            if decl.multi:
                variants[variant_name] = decl.default
            else:
                variants[variant_name] = self.rng.choice(decl.values)
        if constraint is not None:
            for variant_name, value in constraint.variants.items():
                if variant_name in variants:
                    variants[variant_name] = value
        spec = Spec(
            name=name,
            versions=str(version),
            variants=variants,
            compiler=self.compiler,
            compiler_versions=self.compiler_version,
            os=self.os,
            target=self.target,
        )
        self.nodes[name] = spec
        self.open.add(name)
        for decl in cls.dependencies:
            if decl.when is not None and not spec.satisfies(decl.when):
                continue
            if decl.name in spec.dependencies or decl.name in self.open:
                continue  # already linked, or an edge back into the path
            dependency = self.node(decl.name, decl.spec)
            if dependency.name not in self.open:
                spec.dependencies[dependency.name] = dependency
        self.open.discard(name)
        return spec


def synthesize_store(repo, roots: Sequence[str], target_size: int, seed: int) -> Database:
    """Install seeded random DAGs of ``roots``, round-robin, until
    ``target_size`` specs.

    Deterministic for a given seed: the same seed gives the same hashes.
    Round-robin keeps the number of installs per package steady across
    seeds, so only what was installed varies, not how much.
    """
    rng = random.Random(seed)
    database = Database()
    attempts = 0
    while len(database) < target_size:
        if attempts > 50 * target_size:
            raise RuntimeError(f"store stuck at {len(database)} specs")
        builder = _Builder(repo, rng, CONFIGURATIONS[attempts % len(CONFIGURATIONS)])
        root = builder.node(roots[attempts % len(roots)])
        attempts += 1
        for node in root.traverse(order="post"):
            node.mark_concrete()
        database.install(root)
    return database
