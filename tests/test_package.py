import types

import binomlcm
from binomlcm import errors, exact, identities, padic, verify


def test_public_names_are_the_module_exports_and_the_error_classes():
    exported = {
        name
        for name in dir(binomlcm)
        if not name.startswith("_") and not isinstance(getattr(binomlcm, name), types.ModuleType)
    }
    modules = (errors, exact, padic, identities, verify)
    assert exported == set().union(*(module.__all__ for module in modules))
    removed = {"BaseExpansion", "first_non_max_digit", "carries_when_adding",
               "ZeroOperandError", "OutOfRangeError", "ZeroValueError",
               "validate_factored"}
    assert not removed & set(dir(binomlcm))


def test_error_exports_are_the_exception_classes_defined_there():
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == errors.__name__
    }
    assert set(errors.__all__) == defined
