"""Every dataclass of the package that holds arrays compares by identity, or
defines its own `__eq__`: a generated `==` over array fields raises."""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import mcgraph

# a field annotation naming a numpy array, a scipy sparse matrix or a
# `contrastive.Permutations` draw (a dict of arrays, which `==` cannot compare)
ARRAY_TYPE = re.compile(r"ndarray|sp\.\w+_matrix|Permutations")


def array_dataclasses():
    found = []
    for info in pkgutil.iter_modules(mcgraph.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"mcgraph.{info.name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)
                    and any(ARRAY_TYPE.search(str(f.type))
                            for f in dataclasses.fields(cls))):
                found.append(cls)
    return found


def test_the_audit_sees_the_array_dataclasses():
    names = {cls.__name__ for cls in array_dataclasses()}
    assert {"CriterionView", "BlockGraph", "LayerParams", "ViewEmbedding",
            "AdamState", "ContrastPlan", "RatingDataset", "FittedModel"} <= names


@pytest.mark.parametrize("cls", array_dataclasses(), ids=lambda cls: cls.__name__)
def test_array_dataclass_compares_by_identity_or_its_own_eq(cls):
    assert not cls.__dataclass_params__.eq
    if "__eq__" in vars(cls):  # its own, e.g. RatingDataset's column equality
        return

    def build():
        # fresh equal arrays, so that no field compares equal by identity
        return cls(**{f.name: np.ones(2) for f in dataclasses.fields(cls) if f.init})
    a, b = build(), build()
    assert (a == b) is False and (a == a) is True
    if cls.__dataclass_params__.frozen:
        assert hash(a) != hash(b)
