"""The model interface: ``base.OPERATIONS`` names the operations every
model implements in its own class, ``ModelCategory`` defines none of
them, and the optional matrix operations default to ``UnsupportedShape``.
"""

import pytest

from dualkit.models import (EvConst, ModelCategory, ProductCategory,
                            SpanFin, UnsupportedShape)
from dualkit.models.base import OPERATIONS

MATRIX_OPERATIONS = ("negate", "sub_mor", "lift", "extend")


def test_the_interface_lists_seventeen_distinct_operations():
    assert len(set(OPERATIONS)) == len(OPERATIONS) == 17


@pytest.mark.parametrize("cls", [SpanFin, EvConst, ProductCategory])
def test_each_model_implements_every_operation_itself(cls):
    assert [name for name in OPERATIONS
            if not callable(vars(cls).get(name))] == []


def test_the_product_also_has_the_matrix_operations_itself():
    assert [name for name in MATRIX_OPERATIONS
            if not callable(vars(ProductCategory).get(name))] == []


def test_the_abstract_surface_defines_no_operation():
    assert [name for name in OPERATIONS if name in vars(ModelCategory)] == []


def test_a_missing_operation_is_named():
    class Partial(ModelCategory):
        pass

    for name in OPERATIONS:
        with pytest.raises(AttributeError, match=f"'{name}'"):
            getattr(Partial(), name)


def test_the_matrix_operations_default_to_unsupported_shape():
    sp = SpanFin()
    assert all(callable(vars(ModelCategory).get(name))
               for name in MATRIX_OPERATIONS)
    f = sp.identity(2)
    for name, args in (("negate", (f,)), ("sub_mor", (f, f)),
                       ("lift", (f, f)), ("extend", (f, f))):
        with pytest.raises(UnsupportedShape, match="spanfin"):
            getattr(sp, name)(*args)
