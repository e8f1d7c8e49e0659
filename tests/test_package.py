import types

import binomlcm
from binomlcm import errors, exact, identities, padic, verify


def test_public_names_are_the_module_exports_and_the_error_classes():
    exported = {
        name
        for name in dir(binomlcm)
        if not name.startswith("_") and not isinstance(getattr(binomlcm, name), types.ModuleType)
    }
    error_classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    modules = (exact, padic, identities, verify)
    assert exported == set().union(*(module.__all__ for module in modules)) | error_classes
    removed = {"BaseExpansion", "first_non_max_digit", "carries_when_adding",
               "ZeroOperandError", "OutOfRangeError", "ZeroValueError",
               "validate_factored"}
    assert not removed & set(dir(binomlcm))
