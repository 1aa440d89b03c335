"""The package's lazy export table."""

import importlib

import fairmi


def test_every_exported_name_resolves_to_its_module_attribute():
    for name in fairmi.__all__:
        module = importlib.import_module(f"fairmi.{fairmi._EXPORTS[name]}")
        assert getattr(fairmi, name) is getattr(module, name), name
