"""The exact model categories: the ``ModelCategory`` interface and its
shared checks (``base``), spans of finite sets (``spanfin``),
eventually-constant products of prime-field vector spaces
(``evconst``) and the product of two models (``product``).

The names below are exported lazily: each is imported from its home
submodule on first access, so ``import dualkit.models`` loads no
submodule and a caller pays only for the models it uses.
"""

from .. import _lazy_exports

_EXPORTS = {
    "base": ("Biproduct", "Cofiber", "DualityDatum", "ModelCategory",
             "UnsupportedShape", "biproduct_equations_hold",
             "triangle_equations_hold"),
    "evconst": ("UNIT", "ZERO", "EvConst", "EvMorphism", "EvObject",
                "enumerate_homs", "ev_morphism", "ev_object",
                "hom_group_structure"),
    "product": ("ProductCategory", "product_category"),
    "spanfin": ("SpanFin", "SpanMorphism", "span"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
