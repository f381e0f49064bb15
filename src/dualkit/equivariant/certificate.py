"""Collapse certificates: machine-checkable derivations that a reduced
functor F vanishing on one representation sphere vanishes on S^0.

The derivation walks the subgroup-class poset from the bottom: while
the current upset U is nonempty, pick its minimal class H (deterministic
(order, lexicographic) tie-break) and record three steps:

- SingletonKill(H):   F(S^{class H}) = 0 (from the axiom, by stability)
- CofiberLocal(H, U): since downset(H) smashed with U is exactly {H},
                      locality of S^0 -> S^U passes to U minus {H}
- SmashRemove(H):     replace U by U minus {H}

The final fact, once U is empty, is F(S^0) = 0.  Validation first checks
that the certificate's group has the poset's degree and generates the
poset's elements, then replays the steps re-checking every lattice side
condition from the poset alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import MalformedInput, has_shape
from .groups import GROUP_SHAPE, ConjugacyPoset, PermGroup, _join
from .spheres import down_closure, is_upset

SINGLETON_KILL = "SingletonKill"
COFIBER_LOCAL = "CofiberLocal"
SMASH_REMOVE = "SmashRemove"

FINAL_FACT = "F(S^0) = 0"


def kill_fact(i: int) -> str:
    return f"F(S^{{class {i}}}) = 0"


def local_fact(classes) -> str:
    inner = ", ".join(str(i) for i in sorted(classes))
    return f"local(S^0 -> S^{{{inner}}})"


@dataclass(frozen=True)
class CertStep:
    rule: str
    cls: int                 # the class the step acts on
    upset: tuple             # the current upset before the step, sorted
    premises: tuple          # previously derived facts
    conclusion: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "class": self.cls,
                "upset": list(self.upset),
                "premises": list(self.premises),
                "conclusion": self.conclusion}

    @staticmethod
    def from_json(obj) -> "CertStep":
        return CertStep(obj["rule"], obj["class"], tuple(obj["upset"]),
                        tuple(obj["premises"]), obj["conclusion"])


CERTIFICATE_SHAPE = {
    "group": GROUP_SHAPE, "axioms": [str], "final_fact": str,
    "steps": [{"rule": str, "class": int, "upset": [int], "premises": [str],
               "conclusion": str}]}


@dataclass(frozen=True)
class CollapseCertificate:
    group: dict              # the group presentation, for provenance
    axioms: tuple
    steps: tuple
    final_fact: str

    def to_json(self) -> dict:
        return {"group": self.group, "axioms": list(self.axioms),
                "steps": [s.to_json() for s in self.steps],
                "final_fact": self.final_fact}

    @staticmethod
    def from_json(obj) -> "CollapseCertificate":
        if not has_shape(obj, CERTIFICATE_SHAPE):
            raise MalformedInput("not a collapse certificate: expected an "
                                 f"object with the fields "
                                 f"{sorted(CERTIFICATE_SHAPE)}")
        return CollapseCertificate(
            obj["group"], tuple(obj["axioms"]),
            tuple(CertStep.from_json(s) for s in obj["steps"]),
            obj["final_fact"])

    def removal_count(self) -> int:
        return sum(1 for s in self.steps if s.rule == SMASH_REMOVE)


def minimal_classes(poset: ConjugacyPoset, upset) -> list:
    u = frozenset(upset)
    return sorted(i for i in u
                  if not any(j != i and poset.leq[j][i] for j in u))


def generate_collapse_certificate(poset: ConjugacyPoset,
                                  axiom_name: str = "V"
                                  ) -> CollapseCertificate:
    axiom = f"F(S^{axiom_name}) = 0"
    everything = frozenset(range(poset.n))
    # S^{all classes} is S^0 itself, so the initial locality is free
    axioms = (axiom, local_fact(everything))
    steps = []
    u = everything
    while u:
        upset = tuple(sorted(u))
        h = minimal_classes(poset, u)[0]
        steps.append(CertStep(SINGLETON_KILL, h, upset, (axiom,),
                              kill_fact(h)))
        steps.append(CertStep(COFIBER_LOCAL, h, upset,
                              (kill_fact(h), local_fact(u)),
                              local_fact(u - {h})))
        steps.append(CertStep(SMASH_REMOVE, h, upset,
                              (local_fact(u - {h}),),
                              local_fact(u - {h})))
        u = u - {h}
    return CollapseCertificate(poset.group.to_json(), axioms, tuple(steps),
                               FINAL_FACT)


@dataclass
class CertReport:
    ok: bool
    message: str = ""
    step_index: int = -1
    checked_steps: int = 0

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "message": self.message,
                "step_index": self.step_index,
                "checked_steps": self.checked_steps}


def _group_mismatch(cert_group, G: PermGroup):
    """Why the certificate's group is not G, or None when it has G's
    degree and generates G's elements (its generators may differ).  A
    certificate read by from_json has a group of this shape; one built
    directly may not."""
    if not has_shape(cert_group, GROUP_SHAPE):
        return "certificate group is malformed"
    degree = cert_group["degree"]
    if degree != G.degree:
        return (f"certificate group has degree {degree}, the poset's group "
                f"has degree {G.degree}")
    t = G.table
    gens = [tuple(i - 1 for i in g) for g in cert_group["generators"]]
    if not all(g in t.index for g in gens) or _join(
            t.mul, 1 << t.identity, (t.identity,),
            [t.index[g] for g in gens]) != (1 << G.order) - 1:
        return "certificate group generates a different element set"
    return None


def validate_collapse_certificate(cert: CollapseCertificate,
                                  poset: ConjugacyPoset) -> CertReport:
    """Replay the certificate, re-deriving every side condition from the
    poset: the certificate's group is the poset's group, premises were
    previously derived, classes are minimal in the current upset, upsets
    are closed, and the interval smash is right."""
    mismatch = _group_mismatch(cert.group, poset.group)
    if mismatch:
        return CertReport(False, mismatch, -1, 0)
    derived = set(cert.axioms)
    everything = frozenset(range(poset.n))
    if local_fact(everything) not in derived:
        return CertReport(False, "missing the trivial initial locality "
                          "axiom", -1, 0)
    u = everything

    def fail(n, msg):
        return CertReport(False, f"step {n}: {msg}", n, n)

    for n, s in enumerate(cert.steps):
        if s.cls not in range(poset.n):
            return fail(n, f"unknown class {s.cls}")
        if tuple(sorted(u)) != s.upset:
            return fail(n, f"recorded upset {s.upset} differs from the "
                        f"replayed upset {tuple(sorted(u))}")
        if not is_upset(poset, u):
            return fail(n, "current class set is not an upset")
        for p in s.premises:
            if p not in derived:
                return fail(n, f"premise not derived: {p}")
        if s.rule == SINGLETON_KILL:
            if cert.axioms[0] not in s.premises:
                return fail(n, "kill step must cite the vanishing axiom")
            if s.conclusion != kill_fact(s.cls):
                return fail(n, f"conclusion should be {kill_fact(s.cls)}")
        elif s.rule == COFIBER_LOCAL:
            if s.cls not in u:
                return fail(n, f"class {s.cls} not in the current upset")
            if s.cls not in minimal_classes(poset, u):
                return fail(n, f"class {s.cls} is not minimal in the "
                            "current upset")
            if down_closure(poset, s.cls) & u != {s.cls}:
                return fail(n, "downset smashed with the upset is not the "
                            "singleton class")
            if kill_fact(s.cls) not in s.premises or \
                    local_fact(u) not in s.premises:
                return fail(n, "locality step must cite the kill fact and "
                            "the current locality")
            if s.conclusion != local_fact(u - {s.cls}):
                return fail(n, "wrong locality conclusion")
        elif s.rule == SMASH_REMOVE:
            if s.cls not in u:
                return fail(n, f"class {s.cls} not in the current upset")
            if local_fact(u - {s.cls}) not in s.premises:
                return fail(n, "removal must cite the shrunken locality")
            u = u - {s.cls}
        else:
            return fail(n, f"unknown rule {s.rule}")
        derived.add(s.conclusion)
    if u:
        return CertReport(False, f"upset not exhausted: {sorted(u)}",
                          len(cert.steps), len(cert.steps))
    if local_fact(frozenset()) not in derived:
        return CertReport(False, "final locality never derived",
                          len(cert.steps), len(cert.steps))
    if cert.final_fact != FINAL_FACT:
        return CertReport(False, f"final fact is not {FINAL_FACT!r}",
                          len(cert.steps), len(cert.steps))
    return CertReport(True, "", -1, len(cert.steps))
