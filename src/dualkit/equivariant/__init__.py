from .actions import (InvalidAction, coset_action, left_translation_action,
                      natural_action, transitive_actions, untwisting_check,
                      validate_action)
from .certificate import (COFIBER_LOCAL, FINAL_FACT, SINGLETON_KILL,
                          SMASH_REMOVE, CertReport, CertStep,
                          CollapseCertificate, generate_collapse_certificate,
                          kill_fact, local_fact, minimal_classes,
                          validate_collapse_certificate)
from .groups import (DEFAULT_ORDER_BOUND, ConjugacyPoset, GroupTooLarge,
                     PermGroup, all_subgroups, conjugate_subgroup,
                     cyclic_subgroups, enumerate_subgroup_classes,
                     generated_subgroup, is_subconjugate, normalizer,
                     p_identity, p_inv, p_mul, perm_group, weyl_group)
from .presets import GROUP_PRESETS, get_group
from .rep import (REP_PRESETS, NonIntegralAverage, Representation,
                  RepresentationError, fixed_dim, fixed_projector_rank,
                  permutation_representation, reduced_permutation_representation,
                  reduced_regular_representation, regular_representation,
                  trivial_representation)
from .spheres import (CofiberUpsetSequence, IntervalSphere, NotADownset,
                      NotConvex, cofiber_upset_sequence, down_closure,
                      interval_smash, is_downset, is_upset, up_closure)

__all__ = [
    "InvalidAction", "coset_action", "left_translation_action",
    "natural_action", "transitive_actions", "untwisting_check",
    "validate_action",
    "COFIBER_LOCAL", "FINAL_FACT", "SINGLETON_KILL", "SMASH_REMOVE",
    "CertReport", "CertStep", "CollapseCertificate",
    "generate_collapse_certificate", "kill_fact", "local_fact",
    "minimal_classes", "validate_collapse_certificate",
    "DEFAULT_ORDER_BOUND", "ConjugacyPoset", "GroupTooLarge", "PermGroup",
    "all_subgroups", "conjugate_subgroup", "cyclic_subgroups",
    "enumerate_subgroup_classes", "generated_subgroup", "is_subconjugate",
    "normalizer", "p_identity", "p_inv", "p_mul", "perm_group",
    "weyl_group",
    "GROUP_PRESETS", "get_group",
    "REP_PRESETS", "NonIntegralAverage", "Representation",
    "RepresentationError", "fixed_dim", "fixed_projector_rank",
    "permutation_representation", "reduced_permutation_representation",
    "reduced_regular_representation", "regular_representation",
    "trivial_representation",
    "CofiberUpsetSequence", "IntervalSphere", "NotADownset", "NotConvex",
    "cofiber_upset_sequence", "down_closure", "interval_smash", "is_downset",
    "is_upset", "up_closure",
]
