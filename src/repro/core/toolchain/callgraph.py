"""Static call-graph analysis (the Cscope step).

"Knowing the control-flow graph of the system, static analysis determines
whether a procedure call crosses library boundaries, and if so, performs
a syntactic replacement of the function call with a call gate instead"
(Section 3.1).  Indirect calls are the corner case: candidates must be
annotated by the programmer, otherwise analysis reports them.
"""

from __future__ import annotations

from repro.core.toolchain.sources import Call, IndirectCall


def build_callgraph(tree):
    """Function-level DiGraph; nodes are ``lib:func`` strings.

    networkx is imported here, not at module level: building an image
    never needs the graph, and the import costs more than the build.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for func in tree.functions():
        graph.add_node(func.qualified, library=func.library)
    for func in tree.functions():
        for stmt in func.body:
            if isinstance(stmt, Call):
                graph.add_edge(func.qualified, stmt.target, kind="direct")
            elif isinstance(stmt, IndirectCall):
                for lib, name in stmt.candidates:
                    graph.add_edge(
                        func.qualified, "%s:%s" % (lib, name),
                        kind="indirect",
                    )
    return graph


def cross_library_calls(tree):
    """All (caller_function, call_stmt) pairs that cross library bounds."""
    crossings = []
    for func in tree.functions():
        for stmt in func.body:
            if isinstance(stmt, Call) and stmt.library != func.library:
                crossings.append((func, stmt))
    return crossings


def unannotated_indirect_calls(tree):
    """Indirect calls whose candidates lack caller annotations."""
    missing = []
    for func in tree.functions():
        for stmt in func.body:
            if isinstance(stmt, IndirectCall) and not stmt.annotated_callers:
                crosses = any(
                    lib != func.library for lib, _ in stmt.candidates
                )
                if crosses:
                    missing.append((func, stmt))
    return missing


def library_communication_matrix(tree):
    """Library-level call counts: {(caller_lib, callee_lib): n}."""
    matrix = {}
    for func, stmt in cross_library_calls(tree):
        key = (func.library, stmt.library)
        matrix[key] = matrix.get(key, 0) + 1
    return matrix
