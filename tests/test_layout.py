"""The per-sample reference lives in `scoring.py` alone. The shipped modules
neither define it nor import it, except `trainer.py`, whose import of two
of its names is looked up and traced by the benchmark, and `__init__.py`,
which re-exports the public names.

The ledger of uncalled code: every top-level definition in `src/` that
neither the public API, the console script nor import-time code reaches,
through any chain of calls or references between `src/` modules, is pinned
in `UNCALLED` with the reason it stays. So is every import that its module
never uses, in `UNUSED_IMPORTS`. New uncalled code fails here until it is
called, deleted or listed."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semroute"

REFERENCE = {
    "GatingDecision", "base_logits", "semantic_direction", "teacher_gate", "student_gate",
    "select_topk", "expert_forward_one", "expert_forward", "route",
    "option_weight", "main_loss", "contrastive_loss", "wrong_representation", "distill_loss",
}
TRACED_BY_THE_BENCHMARK = {"expert_forward", "score_all_options"}

TAPE_OPS = "an op in perfbench/tracing.py's TAPE_OPS"
ORACLE = "and in tests/oracle_graph.py's op-by-op loss"
ROUTING = f"{TAPE_OPS} and in tests/oracle_graph.py's routing"
REFERENCE_LOSS = "the per-sample reference loss: tests/test_losses.py and tests/test_graph.py"
UNCALLED = {
    "autodiff.bce_logistic": f"{TAPE_OPS} {ORACLE}",
    "autodiff.cosine_rows": f"{TAPE_OPS} {ORACLE}",
    "autodiff.kl_rows": f"{TAPE_OPS} {ORACLE}",
    "autodiff.masked_softmax_rows": f"{TAPE_OPS} {ORACLE}",
    "autodiff.mean_all": f"{TAPE_OPS} {ORACLE}",
    "autodiff.mix": f"{TAPE_OPS} {ORACLE}",
    "autodiff.mul": f"{TAPE_OPS} {ORACLE}",
    "autodiff.sub": f"{TAPE_OPS} {ORACLE}",
    "autodiff.sum_all": f"{TAPE_OPS} {ORACLE}",
    "autodiff.add": ROUTING,
    "autodiff.scale": ROUTING,
    "autodiff.matmul": ROUTING,
    "autodiff.softmax_rows": ROUTING,
    "autodiff._softmax": f"{ROUTING}, through softmax_rows and masked_softmax_rows",
    "autodiff._unbroadcast": f"{ROUTING}, through add, sub and mul",
    "autodiff.stack_cols": TAPE_OPS,
    "autodiff.tanh": TAPE_OPS,
    "autodiff.constant": "tests/test_autodiff.py's tape tests",
    "scoring.main_loss": REFERENCE_LOSS,
    "scoring.contrastive_loss": REFERENCE_LOSS,
    "scoring.wrong_representation": REFERENCE_LOSS,
    "scoring.distill_loss": REFERENCE_LOSS,
    "scoring.option_weight": f"{REFERENCE_LOSS}, through main_loss",
    "scoring.predict": "the per-sample reference prediction: tests/test_evaluate.py",
    "numerics.binary_cross_entropy": f"{REFERENCE_LOSS}, through main_loss",
    "numerics.kl_divergence": f"{REFERENCE_LOSS}, through distill_loss",
    "errors.InvalidDistributionError": "raised only by numerics.kl_divergence",
}
# (module, imported name): imports that their module never uses
UNUSED_IMPORTS = {
    ("cues", "cosine"): "counted by perfbench/tracing.py's COUNTED",
    ("diagnostics", "cosine"): "counted by perfbench/tracing.py's COUNTED",
    ("data", "score_cue_set"): "wrapped by perfbench/tracing.py's SPANS",
    ("trainer", "expert_forward"): "wrapped by perfbench/tracing.py's SPANS",
    ("trainer", "score_all_options"): "wrapped by perfbench/tracing.py's SPANS",
}


def modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def scoring_imports(tree) -> set:
    """Names a module imports from `scoring`; "scoring" for the module itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".scoring", "semroute.scoring"):
                names |= {a.name for a in node.names}
            elif module in (".", "semroute"):
                names |= {a.name for a in node.names} & {"scoring"}
        elif isinstance(node, ast.Import):
            names |= {"scoring" for a in node.names if a.name == "semroute.scoring"}
    return names


def test_no_losses_module():
    assert not (PACKAGE / "losses.py").exists()


def test_only_scoring_defines_the_reference():
    for name, tree in modules().items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        expected = REFERENCE if name == "scoring.py" else set()
        assert defined & REFERENCE == expected, name


def test_only_trainer_and_init_import_scoring():
    importers = {name: names for name, tree in modules().items()
                 if (names := scoring_imports(tree))}
    assert set(importers) == {"__init__.py", "trainer.py"}
    assert importers["trainer.py"] == TRACED_BY_THE_BENCHMARK


def package_names(tree) -> dict:
    """Local name -> (module, name) for each name a module imports from the
    package, and -> (module, None) for each package module it imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                names[a.asname or a.name] = (node.module, a.name) if node.module else (a.name, None)
    return names


def references(node, module, defined, imported) -> set:
    """The (module, name) definitions that the code under `node` refers to,
    by name or as an attribute of an imported package module."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in defined:
            found.add((module, n.id))
        elif isinstance(n, ast.Name) and imported.get(n.id, (None, None))[1]:
            found.add(imported[n.id])
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in imported and imported[n.value.id][1] is None):
            found.add((imported[n.value.id][0], n.attr))
    return found


def call_graph():
    """Every top-level definition of `src/`, the (module, name) keys that
    the package reaches from its roots, and the unused imports."""
    edges, roots, unused = {}, set(), set()
    script = re.search(r'"semroute\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text())
    roots.add(script.groups())
    for filename, tree in modules().items():
        module = filename[:-3]
        imported = package_names(tree)
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node
            elif isinstance(node, ast.Assign):
                defined.update((t.id, None) for t in node.targets if isinstance(t, ast.Name)
                               and not t.id.startswith("__"))
        for node in tree.body:
            refs = references(node, module, defined, imported)
            if getattr(node, "name", None) in defined:
                edges[(module, node.name)] = refs - {(module, node.name)}
            else:  # import-time code
                roots |= refs
        edges.update(((module, name), set()) for name in defined if (module, name) not in edges)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if module == "__init__":  # the public API
            roots |= {key for key in imported.values() if key[1]}
        else:
            unused |= {(module, local) for local in imported if local not in used}
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(edges.get(key, ()))
    return set(edges), reached, unused


def test_uncalled_code_is_in_the_ledger():
    defined, reached, _ = call_graph()
    uncalled = {f"{module}.{name}" for module, name in defined - reached}
    assert uncalled <= set(UNCALLED), sorted(uncalled - set(UNCALLED))
    # an entry whose code was deleted leaves the ledger too
    assert set(UNCALLED) <= {f"{module}.{name}" for module, name in defined}


def test_unused_imports_are_in_the_ledger():
    _, _, unused = call_graph()
    assert unused <= set(UNUSED_IMPORTS), sorted(unused - set(UNUSED_IMPORTS))
