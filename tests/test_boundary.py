"""Only conftest.py knows how a layered cascade stores its layers and successor pointers.

Every other test sees a cascade through conftest's ``layer_keys`` and
``front_pointers``, views of what the paper defines, or ``traced_layers``, the
layer objects as the benchmark reads them, so a change to how the cascade
stores them changes those views and the planted faults, not every test that
reads a layer.  This test reads the syntax tree of each test module
and fails on any attribute named for one of the cascade's fields outside the
allowlist.
"""

import ast
from pathlib import Path

from conftest import CASCADE_FIELDS

# scopes that touch the fields by design: the planted faults, which corrupt them, and the
# two tests that pin a per-layer y-fast fact the paper does not define (flat front layers;
# no layer over its capacity after each y-fast update of a promotion)
ALLOWED = {
    "test_integration.py": {
        "_drop_key_from_last_layer",
        "_swap_a_last_layer_key_for_an_absent_one",
        "_front_key_also_in_the_last_layer",
        "_clear_a_successor",
        "_pointer_for_a_last_layer_key",
        "_swap_a_front_key_with_a_last_layer_key",
        "_move_a_layer_1_key_to_the_last_layer",
        "_move_the_lowest_ranked_layer_1_key_to_the_last_layer",
        "_reverse_the_layer_1_recency_queue",
        "_stamp_a_layer_1_key_fresher_than_layer_0",
        "BREAK_INVARIANTS",
    },
    "test_layered.py": {
        "TestFrontLayers.test_front_layers_hold_no_routing_trie",
        "TestFrontLayers.test_promotion_never_overfills_a_layer",
    },
}


def field_uses(tree: ast.Module) -> list[tuple[str, int, str]]:
    """(scope, line, field) for each attribute named for a cascade field, read or written.

    The scope is the dotted name of the enclosing classes and functions, or the
    name a module-level assignment binds, such as a table of planted faults.
    """
    uses = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        elif isinstance(node, ast.Attribute) and node.attr in CASCADE_FIELDS:
            uses.append((".".join(scope), node.lineno, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for stmt in tree.body:
        names = [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)]
        visit(stmt, tuple(names[:1]))
    return uses


def test_only_conftest_and_the_allowlist_touch_cascade_fields():
    outside, used = [], set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        allowed = ALLOWED.get(path.name, set())
        for scope, line, field in field_uses(ast.parse(path.read_text(encoding="utf-8"))):
            owner = next((a for a in allowed if scope == a or scope.startswith(a + ".")), None)
            if owner is None:
                outside.append(f"{path.name}:{line} ({scope or 'module'}) .{field}")
            else:
                used.add((path.name, owner))
    assert not outside, ("read a cascade through conftest's layer_keys, front_pointers or "
                         "traced_layers:\n"
                         + "\n".join(outside))
    # an entry whose code no longer touches a field only widens the allowlist
    assert used == {(name, a) for name, scopes in ALLOWED.items() for a in scopes}
