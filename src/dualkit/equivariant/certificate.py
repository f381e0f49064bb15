"""Collapse certificates: machine-checkable derivations that a reduced
functor F vanishing on one representation sphere vanishes on S^0.

The derivation walks the subgroup-class poset from the bottom: while
the current upset U is nonempty, pick its minimal class H (deterministic
(order, lexicographic) tie-break) and record three steps, each the one
its rule makes at H and U (``_step``):

- SingletonKill(H):   F(S^{class H}) = 0, citing the axiom F(S^V) = 0
                      (by stability)
- CofiberLocal(H, U): since H is minimal in U, downset(H) smashed with U
                      is exactly {H}, so locality of S^0 -> S^U passes
                      to U minus {H}: it cites the kill fact and
                      local(U), and concludes local(U minus {H})
- SmashRemove(H):     cites and concludes local(U minus {H}), and
                      replaces U by U minus {H}

The final fact, once U is empty, is F(S^0) = 0.

The vanishing axiom may not state a fact the derivation concludes:
F(S^0) = 0 itself or F(S^{class i}) = 0 for a class i of the poset.
The generator refuses such an axiom name, and the checker such an axiom.

Validation replays the same rule.  The certificate's group must have
the poset's degree and generate the poset's elements, and its axioms
must be exactly F(S^<name>) = 0 and local(S^0 -> S^{all classes}).
From U = all classes, each step must name a known rule and class, the
class of a CofiberLocal or SmashRemove step must be minimal in U, and
the step must equal the one its rule makes at U (its recorded upset, its
premises in order and its conclusion) and cite only facts derived
before it.  At the end U must be empty and the final fact F(S^0) = 0.
Only a minimal class leaves U, so every replayed U is an upset, and the
last SmashRemove has concluded local(S^0 -> S^{}).
"""

from __future__ import annotations

from .. import Frozen, MalformedInput, Record, has_shape
from .groups import GROUP_SHAPE, ConjugacyPoset, PermGroup, _join

SINGLETON_KILL = "SingletonKill"
COFIBER_LOCAL = "CofiberLocal"
SMASH_REMOVE = "SmashRemove"
_RULES = (SINGLETON_KILL, COFIBER_LOCAL, SMASH_REMOVE)

FINAL_FACT = "F(S^0) = 0"


def kill_fact(i: int) -> str:
    return f"F(S^{{class {i}}}) = 0"


def local_fact(classes) -> str:
    inner = ", ".join(str(i) for i in sorted(classes))
    return f"local(S^0 -> S^{{{inner}}})"


class CertStep(Frozen):
    _fields = ("rule", "cls", "upset", "premises", "conclusion")

    def __init__(self, rule: str, cls: int, upset: tuple, premises: tuple,
                 conclusion: str):
        # cls is the class the step acts on, upset the current upset
        # before the step (sorted), premises previously derived facts
        self.__dict__.update(rule=rule, cls=cls, upset=upset,
                             premises=premises, conclusion=conclusion)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rule, self.cls, self.upset, self.premises,
                self.conclusion) == (other.rule, other.cls, other.upset,
                                     other.premises, other.conclusion)

    def __hash__(self):
        return hash((self.rule, self.cls, self.upset, self.premises,
                     self.conclusion))

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


class CollapseCertificate(Frozen):
    _fields = ("group", "axioms", "steps", "final_fact")

    def __init__(self, group: dict, axioms: tuple, steps: tuple,
                 final_fact: str):
        # group is the group presentation, for provenance
        self.__dict__.update(group=group, axioms=axioms, steps=steps,
                             final_fact=final_fact)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.axioms, self.steps, self.final_fact) == \
            (other.group, other.axioms, other.steps, other.final_fact)

    def __hash__(self):
        return hash((self.group, self.axioms, self.steps, self.final_fact))

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


def _is_minimal(poset: ConjugacyPoset, h: int, u: frozenset) -> bool:
    """h is in u and no other class of u lies below it."""
    return h in u and not any(j != h and poset.leq[j][h] for j in u)


def minimal_classes(poset: ConjugacyPoset, upset) -> list:
    u = frozenset(upset)
    return sorted(i for i in u if _is_minimal(poset, i, u))


def _is_forged(poset: ConjugacyPoset, axiom: str) -> bool:
    """The vanishing axiom states the final fact, or a class's kill fact."""
    return axiom in (FINAL_FACT, *map(kill_fact, range(poset.n)))


def _step(rule: str, h: int, u: frozenset, axiom: str) -> tuple:
    """The step that rule (one of ``_RULES``) makes at class h and upset
    u, with axiom the vanishing axiom, and the upset after it."""
    upset, rest = tuple(sorted(u)), u - {h}
    if rule == SINGLETON_KILL:
        return CertStep(rule, h, upset, (axiom,), kill_fact(h)), u
    shrunk = local_fact(rest)
    if rule == COFIBER_LOCAL:
        return CertStep(rule, h, upset, (kill_fact(h), local_fact(u)),
                        shrunk), u
    return CertStep(rule, h, upset, (shrunk,), shrunk), rest


def generate_collapse_certificate(poset: ConjugacyPoset,
                                  axiom_name: str = "V"
                                  ) -> CollapseCertificate:
    axiom = f"F(S^{axiom_name}) = 0"
    if _is_forged(poset, axiom):
        raise MalformedInput(f"the vanishing axiom {axiom!r} states a fact "
                             "the certificate derives")
    u = frozenset(range(poset.n))
    # S^{all classes} is S^0 itself, so the initial locality is free
    axioms = (axiom, local_fact(u))
    steps = []
    while u:
        # classes are numbered in order of size, so the least class of u
        # is minimal and passes at once
        h = next(i for i in sorted(u) if _is_minimal(poset, i, u))
        for rule in _RULES:
            step, u = _step(rule, h, u, axiom)
            steps.append(step)
    return CollapseCertificate(poset.group.to_json(), axioms, tuple(steps),
                               FINAL_FACT)


class CertReport(Record):
    _fields = ("ok", "message", "step_index", "checked_steps")

    def __init__(self, ok: bool, message: str = "", step_index: int = -1,
                 checked_steps: int = 0):
        self.ok = ok
        self.message = message
        self.step_index = step_index
        self.checked_steps = checked_steps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ok, self.message, self.step_index,
                self.checked_steps) == (other.ok, other.message,
                                        other.step_index, other.checked_steps)

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
    """Replay the certificate against the poset, step by step, with the
    rule that generates it (see the module docstring)."""
    mismatch = _group_mismatch(cert.group, poset.group)
    if mismatch:
        return CertReport(False, mismatch, -1, 0)
    u = frozenset(range(poset.n))
    name = cert.axioms[0][4:-5] if cert.axioms else ""
    if not name or tuple(cert.axioms) != (f"F(S^{name}) = 0", local_fact(u)):
        return CertReport(False, "the axioms are not exactly F(S^<name>) = 0 "
                          f"and {local_fact(u)}", -1, 0)
    if _is_forged(poset, cert.axioms[0]):
        return CertReport(False, f"the vanishing axiom {cert.axioms[0]!r} "
                          "states a fact the certificate derives", -1, 0)
    derived = set(cert.axioms)

    def fail(n, msg):
        return CertReport(False, f"step {n}: {msg}", n, n)

    for n, s in enumerate(cert.steps):
        if s.rule not in _RULES:
            return fail(n, f"unknown rule {s.rule}")
        if s.cls not in range(poset.n):
            return fail(n, f"unknown class {s.cls}")
        if s.rule != SINGLETON_KILL and not _is_minimal(poset, s.cls, u):
            return fail(n, f"class {s.cls} is not minimal in the current "
                        "upset")
        want, after = _step(s.rule, s.cls, u, cert.axioms[0])
        for part in ("upset", "premises", "conclusion"):
            got, replayed = getattr(s, part), getattr(want, part)
            if got != replayed:
                return fail(n, f"recorded {part} {got} differs from the "
                            f"replayed {part} {replayed}")
        for p in s.premises:
            if p not in derived:
                return fail(n, f"premise not derived: {p}")
        derived.add(s.conclusion)
        u = after
    end = len(cert.steps)
    if u or cert.final_fact != FINAL_FACT:
        return CertReport(False, f"upset not exhausted: {sorted(u)}" if u
                          else f"final fact is not {FINAL_FACT!r}", end, end)
    return CertReport(True, "", -1, end)
