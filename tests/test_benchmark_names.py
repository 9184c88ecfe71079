"""The benchmark's workloads call the package by module attribute; each name
they read must exist, and each call must bind to its function's signature,
so a refactor that drops a name or a parameter fails here rather than in a
benchmark run. Likewise each function `perfbench/tracing.py` wraps for a
per-layer metric must exist, since the tracer skips a missing one and its
metric then reads 0; the tape primitives it names are left out, as some are
absent on purpose."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import mcgraph
from mcgraph import attention, cli, contrastive, dataset, evaluate, graph, recommend

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# the alias each module is imported under in workloads.py
MODULES = {"ev": evaluate, "cl": contrastive, "att": attention, "ds": dataset,
           "graph": graph, "rec": recommend, "cli": cli}


def module_attributes():
    """(alias, attribute) for every `alias.attribute` read in workloads.py."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in MODULES})


def test_workloads_import_the_modules_under_these_aliases():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "mcgraph" for alias in node.names}
    assert {alias: module.__name__ for alias, module in MODULES.items()} == imported


@pytest.mark.parametrize("alias, name", module_attributes())
def test_every_name_the_workloads_read_exists(alias, name):
    assert hasattr(MODULES[alias], name), f"{MODULES[alias].__name__} has no {name}"


def module_calls():
    """(alias, function, positional count, keyword names) for every distinct
    `alias.function(...)` call in workloads.py."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES]
    # a starred argument would hide how many arguments a call passes
    assert not any(isinstance(arg, ast.Starred) for node in calls for arg in node.args)
    assert all(k.arg is not None for node in calls for k in node.keywords)
    return sorted({(node.func.value.id, node.func.attr, len(node.args),
                    tuple(sorted(k.arg for k in node.keywords))) for node in calls})


CALLS = module_calls()


@pytest.mark.parametrize("alias, name, positional, keywords", CALLS,
                         ids=[f"{alias}.{name}/{positional}/{'+'.join(keywords)}"
                              for alias, name, positional, keywords in CALLS])
def test_every_call_the_workloads_make_binds(alias, name, positional, keywords):
    # placeholders stand in for the values: only the argument shape is checked
    signature = inspect.signature(getattr(MODULES[alias], name))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))


def cli_command_lines():
    """The argv of every `cli.main([...])` call in workloads.py, each element
    that is not a string literal replaced by a placeholder path."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return [[arg.value if isinstance(arg, ast.Constant) else "placeholder/path"
             for arg in node.args[0].elts]
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "main"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "cli"]


def test_workloads_run_the_cli():
    assert [argv[0] for argv in cli_command_lines()] == ["ingest", "stats"]


@pytest.mark.parametrize("argv", cli_command_lines(), ids=lambda argv: argv[0])
def test_every_command_line_the_workloads_run_parses(argv):
    args = cli.build_parser().parse_args(argv)  # a usage error exits here
    assert args.command == argv[0]


def test_every_function_the_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", WORKLOADS.with_name("tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the tracer looks each name up in its owner's own namespace
    missing = [f"{owner.__name__.removeprefix('mcgraph.')}.{name}"
               for owner, name, _, _ in tracing._targets(mcgraph)
               if not (owner is mcgraph.autodiff and name in tracing.PRIMITIVES)
               and name not in vars(owner)]
    # scoring is `predict_many` now; ROADMAP item 1 drops this name from the benchmark
    assert missing == ["recommend.predict_rating"]
