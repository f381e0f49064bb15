"""Finite permutation groups and their equivariant data: subgroup
lattices and Weyl groups (``groups``), group presets (``presets``),
exact rational representations and fixed-point dimensions (``rep``),
the untwisting bijection on finite G-sets (``actions``), interval
spheres (``spheres``) and collapse certificates (``certificate``).

The names below are exported lazily: each is imported from its home
submodule on first access, so ``import dualkit.equivariant`` loads no
submodule and a caller pays only for the submodules it uses.
"""

from .. import _lazy_exports

_EXPORTS = {
    "actions": ("InvalidAction", "coset_action", "left_translation_action",
                "natural_action", "transitive_actions", "untwisting_check",
                "validate_action"),
    "certificate": ("COFIBER_LOCAL", "FINAL_FACT", "SINGLETON_KILL",
                    "SMASH_REMOVE", "CertReport", "CertStep",
                    "CollapseCertificate", "generate_collapse_certificate",
                    "kill_fact", "local_fact", "minimal_classes",
                    "validate_collapse_certificate"),
    "groups": ("DEFAULT_ORDER_BOUND", "ConjugacyPoset", "GroupTooLarge",
               "PermGroup", "all_subgroups", "conjugate_subgroup",
               "cyclic_subgroups", "enumerate_subgroup_classes",
               "generated_subgroup", "is_subconjugate", "normalizer",
               "p_identity", "p_inv", "p_mul", "perm_group", "weyl_group"),
    "presets": ("GROUP_PRESETS", "get_group"),
    "rep": ("REP_PRESETS", "NonIntegralAverage", "Representation",
            "RepresentationError", "fixed_dim", "fixed_projector_rank",
            "permutation_representation",
            "reduced_permutation_representation",
            "reduced_regular_representation", "regular_representation",
            "trivial_representation"),
    "spheres": ("CofiberUpsetSequence", "IntervalSphere", "NotADownset",
                "NotConvex", "cofiber_upset_sequence", "down_closure",
                "interval_smash", "is_downset", "is_upset", "up_closure"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
