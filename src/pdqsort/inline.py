"""The built-in ``<`` branch of a kernel, generated from its one source.

As C++ ``pdqsort.h`` is specialised per comparator, :func:`inline_lt`
recompiles a kernel as ``if lt is operator.lt: <body with each lt(a, b)
written a < b> else: <body>``. Both branches make the same comparisons
in the same order; their tracebacks name the ``lt(...)`` call's line.
"""

import __future__
import ast
import inspect
import operator


class _LtToLess(ast.NodeTransformer):
    def visit_Call(self, node):
        self.generic_visit(node)
        if isinstance(node.func, ast.Name) and node.func.id == "lt":
            a, b = node.args
            return ast.copy_location(ast.Compare(a, [ast.Lt()], [b]), node)
        return node


def inline_lt(kernel):
    """Decorator: ``kernel`` with its built-in ``<`` branch generated."""
    lines, first = inspect.getsourcelines(kernel)
    # Blank lines in front put every parsed node at its line in the file.
    source = "\n" * (first - 1) + "".join(lines)
    kernel_def = ast.parse(source).body[0]
    kernel_def.decorator_list = []
    start = 1 if ast.get_docstring(kernel_def) else 0
    generic = kernel_def.body[start:]
    inline = _LtToLess().visit(ast.parse(source).body[0]).body[start:]
    test = ast.parse("lt is builtin_lt", mode="eval").body
    branch = ast.If(test, inline, generic)
    for node in (branch, *ast.walk(test)):
        ast.copy_location(node, generic[0])
    kernel_def.body[start:] = [branch]
    # The branch test reads operator.lt from a closure cell of this factory.
    tree = ast.parse(f"def factory(builtin_lt):\n    return {kernel.__name__}")
    tree.body[0].body.insert(0, kernel_def)
    flags = kernel.__code__.co_flags & __future__.annotations.compiler_flag
    code = compile(tree, inspect.getsourcefile(kernel), "exec", flags, dont_inherit=True)
    namespace = {}
    exec(code, kernel.__globals__, namespace)
    generated = namespace["factory"](operator.lt)
    generated.__qualname__ = kernel.__qualname__
    return generated
