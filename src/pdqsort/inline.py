"""The built-in ``<`` branch of a kernel, generated from its one source.

As C++ ``pdqsort.h`` is specialised per comparator, :func:`inline_lt`
recompiles a kernel as ``if lt is operator.lt: <body with each lt(a, b)
written a < b> else: <body>``. Both branches make the same comparisons
in the same order; their tracebacks name the ``lt(...)`` call's line.
"""

import __future__
import ast
import copy
import functools
import linecache
import operator


class _LtToLess(ast.NodeTransformer):
    def visit_Call(self, node):
        self.generic_visit(node)
        if isinstance(node.func, ast.Name) and node.func.id == "lt":
            a, b = node.args
            return ast.copy_location(ast.Compare(a, [ast.Lt()], [b]), node)
        return node


@functools.lru_cache(maxsize=1)
def _module_tree(filename):
    """The syntax tree of one kernel module, parsed once for all of its
    kernels, which it decorates one after another."""
    return ast.parse("".join(linecache.getlines(filename)), filename)


def inline_lt(kernel):
    """Decorator: ``kernel`` with its built-in ``<`` branch generated."""
    filename = kernel.__code__.co_filename
    # A decorated function's code starts at its first decorator's line.
    first = kernel.__code__.co_firstlineno
    (found,) = (
        node
        for node in _module_tree(filename).body
        if isinstance(node, ast.FunctionDef)
        and node.name == kernel.__name__
        and node.decorator_list
        and node.decorator_list[0].lineno == first
    )
    # The cached tree stays as parsed: the generic branch shares its nodes,
    # which compile() only reads, and the inline branch is parsed anew.
    # Blank lines in front put every parsed node at its line in the file.
    lines = linecache.getlines(filename)[first - 1 : found.end_lineno]
    source = "\n" * (first - 1) + "".join(lines)
    start = 1 if ast.get_docstring(found) else 0
    generic = found.body[start:]
    inline = _LtToLess().visit(ast.parse(source).body[0]).body[start:]
    test = ast.parse("lt is builtin_lt", mode="eval").body
    branch = ast.If(test, inline, generic)
    for node in (branch, *ast.walk(test)):
        ast.copy_location(node, generic[0])
    kernel_def = copy.copy(found)
    kernel_def.decorator_list = []
    kernel_def.body = found.body[:start] + [branch]
    # The branch test reads operator.lt from a closure cell of this factory.
    tree = ast.parse(f"def factory(builtin_lt):\n    return {kernel.__name__}")
    tree.body[0].body.insert(0, kernel_def)
    flags = kernel.__code__.co_flags & __future__.annotations.compiler_flag
    code = compile(tree, filename, "exec", flags, dont_inherit=True)
    namespace = {}
    exec(code, kernel.__globals__, namespace)
    generated = namespace["factory"](operator.lt)
    generated.__qualname__ = kernel.__qualname__
    return generated
