import ast
from collections import Counter
from pathlib import Path

import cycloseq

# public functions that no code in the package calls, each kept on purpose
UNREFERENCED_ON_PURPOSE = {
    "count_pattern",  # the README's point query; perfbench/trace_boot.py wraps it by name
    "partition_count",  # perfbench/run.py reads its cache_info for a hit ratio
    "stirling_binomial",  # the Gaussian estimate of C(m, h) that acceptance criterion 10 checks
}


def _uses(node):
    """How often each name or attribute is read or written in the node."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


def test_every_public_function_serves_the_package():
    # a public function that nothing in src/ reaches is dead weight: no command
    # prints it and verify never checks it
    trees = [ast.parse(path.read_text()) for path in Path(cycloseq.__file__).parent.glob("*.py")]
    everywhere = sum(map(_uses, trees), Counter())
    unreferenced = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and everywhere[node.name] == _uses(node)[node.name]
    }
    assert unreferenced == UNREFERENCED_ON_PURPOSE
