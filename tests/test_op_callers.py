"""Every public name and every autodiff op keeps a caller in the program.

The static audit reads the package's source with ``ast``. Each public
top-level function and class (error classes included), and each public
method of a public class, passes when a ``Name`` or ``Attribute`` node
carrying its identifier appears somewhere in the package outside its own
definition; an import alone is not a caller. A name with no caller is
deleted, moved into ``tests/`` as an oracle or fixture, or listed in
``ENTRY_POINTS`` with the reason it stays. An entry that has gained a
caller fails too, so the list cannot go stale. Each name a module of the
package or of ``tests/`` imports must also be used in that module, or
exported through its ``__all__``.

The runtime audit covers the ops the ``autodiff`` module docstring lists.
Each is wrapped, and the program's own entry points run: ``train_run`` on
a dense ``soft+distr`` job and on a ``per_tap`` recurrent job with dropout,
``evaluate_model`` and ``run_grad_checks``. An op that none of them reaches
from a module of the package has no caller left outside the tests, and
belongs in ``tests/reference_ops.py`` with the other oracles.
"""

import ast
import inspect
import os
import re
import sys
from collections import Counter
from typing import Dict, Iterator, List, Tuple

import pytest

import affectkit
from affectkit import autodiff
from affectkit.harness.checks import run_grad_checks
from affectkit.harness.config import RunConfig
from affectkit.harness.dataio import load_dataset
from affectkit.harness.evaluate import evaluate_model
from affectkit.harness.synth import SyntheticSpec, generate_dataset
from affectkit.harness.training import train_run

PACKAGE_DIR = os.path.dirname(os.path.abspath(affectkit.__file__)) + os.sep
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
# public autodiff functions that build no graph node
HELPERS = {"sigmoid_values", "backward", "glorot_uniform", "save_checkpoint", "load_checkpoint"}

# public names the package keeps without a caller in it, each with its reason
ENTRY_POINTS = {
    "models.predict_sequence": "the serving entry point: one clip of frames in, per-frame "
    "outputs and the VA median out; the benchmark's stream_predict workload calls it",
}

# imports a module keeps without using them, per module
UNUSED_IMPORTS: Dict[str, set] = {}


# ---------------------------------------------------------------------------
# static audit


def read_package(directory: str = PACKAGE_DIR, prefix: str = "") -> Dict[str, ast.Module]:
    """Each module under ``directory`` by dotted name below it, after
    ``prefix``: by default the package's modules, under ``affectkit``."""
    trees = {}
    for dirpath, _, files in os.walk(directory):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                module = os.path.relpath(path, directory)[: -len(".py")].replace(os.sep, ".")
                module = prefix + module
                with open(path, encoding="utf-8") as fh:
                    trees[module] = ast.parse(fh.read(), path)
    return trees


def identifiers(node: ast.AST) -> Counter:
    """How often each identifier is a ``Name`` or an ``Attribute`` under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def public_definitions(trees) -> Iterator[Tuple[str, ast.AST]]:
    """(qualified name, definition) of each audited function, class and method."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item


def uncalled_names(trees, entry_points) -> List[str]:
    everywhere = sum((identifiers(tree) for tree in trees.values()), Counter())
    problems, defined = [], set()
    for qualname, node in public_definitions(trees):
        defined.add(qualname)
        called = everywhere[node.name] > identifiers(node)[node.name]
        if not called and qualname not in entry_points:
            problems.append(f"{qualname}: no caller in the package")
        elif called and qualname in entry_points:
            problems.append(f"{qualname}: an entry point with a caller in the package")
    undefined = sorted(entry_points.keys() - defined)
    problems += [f"{q}: an entry point that is not defined" for q in undefined]
    return problems


def unused_imports(trees, allowed) -> List[str]:
    problems = []
    for module, tree in trees.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {  # names re-exported through __all__
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        keep = allowed.get(module, set())
        unused = sorted(imported - used - keep)
        problems += [f"{module}: {n} is imported and unused" for n in unused]
        problems += [f"{module}: {n} is allowed unused but used" for n in sorted(keep & used)]
    return problems


def test_every_public_name_has_a_caller_or_a_reason():
    assert uncalled_names(read_package(), ENTRY_POINTS) == []
    assert len(ENTRY_POINTS) <= 4 and all(reason.strip() for reason in ENTRY_POINTS.values())


def test_every_import_is_used():
    trees = {**read_package(), **read_package(TESTS_DIR, "tests.")}
    assert unused_imports(trees, UNUSED_IMPORTS) == []


def test_the_audit_flags_orphans_stale_entries_and_unused_imports():
    trees = {
        "a": ast.parse(
            "import os\nimport sys\n\n\ndef called():\n    return sys.argv\n\n\n"
            "def orphan():\n    return orphan()\n\n\n"
            "class Thing:\n    def method(self):\n        return called()\n"
        ),
        "b": ast.parse("from a import Thing, orphan\n\n\ndef entry():\n    return Thing()\n"),
    }
    # a recursive call and an import are no caller; a listed name that is
    # called, or that is not defined, is a stale entry
    entries = {"b.entry": "r", "a.called": "r", "a.gone": "r"}
    assert uncalled_names(trees, entries) == [
        "a.called: an entry point with a caller in the package",
        "a.orphan: no caller in the package",
        "a.Thing.method: no caller in the package",
        "a.gone: an entry point that is not defined",
    ]
    assert unused_imports(trees, {"b": {"Thing"}}) == [
        "a: os is imported and unused",
        "b: orphan is imported and unused",
        "b: Thing is allowed unused but used",
    ]


# ---------------------------------------------------------------------------
# runtime audit of the autodiff ops


def documented_ops():
    doc = autodiff.__doc__
    start = doc.index("The op set is exactly")
    paragraph = doc[start : doc.index("\n\n", start)]
    return set(re.findall(r"``(\w+)``", paragraph))


def test_docstring_lists_every_op():
    public = {
        name
        for name, fn in inspect.getmembers(autodiff, inspect.isfunction)
        if fn.__module__ == autodiff.__name__ and not name.startswith("_")
    }
    assert documented_ops() == public - HELPERS


@pytest.fixture
def program_callers(monkeypatch):
    """Wrap each documented op; the returned set collects the ops called
    from a module of the package."""
    reached = set()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename.startswith(PACKAGE_DIR):
                reached.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in documented_ops():
        monkeypatch.setattr(autodiff, name, wrap(name, getattr(autodiff, name)))
    return reached


def test_every_op_has_a_program_caller(tmp_path, program_callers):
    spec = SyntheticSpec(train_counts=(20, 20, 20), val_counts=(8, 8, 8), feature_dim=10)
    feats, ann = generate_dataset(spec, 2, str(tmp_path))
    base = dict(
        train_annotations=ann, train_features=feats, seed=1, feature_dim=10,
        lr=1e-2, epochs=1, total_batch=12,
    )
    jobs = {
        "dense": dict(backbone=(8,), coupling="soft+distr"),
        "per_tap": dict(
            backbone=(8, 6), taps=(0, 1), recurrent="per_tap:4x2",
            dropout=0.2, recurrent_dropout=0.1,
        ),
    }
    for name, extra in jobs.items():
        result = train_run(RunConfig(**base, **extra, out_dir=str(tmp_path / name)))
    evaluate_model(result.model, load_dataset(ann, feats, split="val"))
    run_grad_checks(n_points=3)
    assert sorted(documented_ops() - program_callers) == []
