"""The per-sample reference lives in `scoring.py` alone. The shipped modules
neither define it nor import it, except `trainer.py`, whose import of two
of its names is looked up and traced by the benchmark, and `__init__.py`,
which re-exports the public names."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semroute"

REFERENCE = {
    "GatingDecision", "base_logits", "semantic_direction", "teacher_gate", "student_gate",
    "select_topk", "expert_forward_one", "expert_forward", "route",
    "option_weight", "main_loss", "contrastive_loss", "wrong_representation", "distill_loss",
}
TRACED_BY_THE_BENCHMARK = {"expert_forward", "score_all_options"}


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
