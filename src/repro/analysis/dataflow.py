"""Forward dataflow over :mod:`repro.analysis.cfg` graphs.

One worklist engine serves every flow-sensitive rule: clients subclass
:class:`ForwardDataflow` and define the lattice (``initial``/``join``)
and the per-element transfer function.  A must-analysis joins with
intersection (a name *must* hold a set on every path).

The engine is deliberately small: facts are immutable values, blocks
re-enter the worklist when their entry fact changes, and termination
follows from the client's lattice being finite with a monotone join —
true for every client here (frozensets over program identifiers).
"""

import ast

from .cfg import EXC, build_cfg


class ForwardDataflow:
    """Subclass and override the three lattice hooks."""

    def initial(self):
        """Fact at scope entry."""
        raise NotImplementedError

    def join(self, a, b):
        """Merge facts where control-flow paths meet."""
        raise NotImplementedError

    def transfer(self, elem, fact):
        """Apply one block element ``(kind, node)`` to *fact*."""
        raise NotImplementedError

    # -- engine --------------------------------------------------------
    def run(self, cfg):
        """Fixpoint: returns ``{block_id: entry_fact}`` (None=unreached)."""
        entry_facts = {block.id: None for block in cfg.blocks}
        entry_facts[cfg.entry.id] = self.initial()
        worklist = [cfg.entry]
        while worklist:
            block = worklist.pop()
            fact = entry_facts[block.id]
            if fact is None:
                continue
            out = self.block_exit(block, fact)
            for succ, polarity, _test in block.succ:
                if polarity == EXC:
                    # The source may have executed any prefix of its
                    # elements when the exception surfaced: be safe and
                    # merge its entry with its exit.
                    edge_fact = self.join(fact, out)
                else:
                    edge_fact = out
                old = entry_facts[succ.id]
                new = edge_fact if old is None else self.join(old, edge_fact)
                if new != old:
                    entry_facts[succ.id] = new
                    worklist.append(succ)
        return entry_facts

    def block_exit(self, block, fact):
        """Fold ``transfer`` over the block's elements."""
        for elem in block.elems:
            fact = self.transfer(elem, fact)
        return fact

    def analyze(self, body):
        """Convenience: build the CFG of *body* and run to fixpoint."""
        cfg = build_cfg(body)
        return cfg, self.run(cfg)


def iter_scopes(tree):
    """Yield ``(scope_node, body)`` for a module and every nested scope.

    Scopes are the units CFGs are built over: the module itself, then
    each function/async-function/class body (in source order).  Nested
    ``def``/``class`` statements appear in their enclosing scope's CFG
    as plain elements but their bodies are only visited via their own
    scope entry here.
    """
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node,
                      (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.body
