"""What a call leaves behind for the cycle collector.

``garbage_left_by(call)`` runs ``call()`` with the collector off and
returns how many objects only a full collection frees afterwards.  Zero
means everything the call built and dropped was freed by refcounting the
moment it was dropped.  Otherwise it prints the surviving cycles as
``type.attr -> type`` edges with their counts (objects merely hanging off
a cycle are left out), so a failing guard names the edge to break.
"""

import gc
import types
from collections import Counter


def garbage_left_by(call) -> int:
    gc.collect()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    if found:
        print(f"{found} objects left as cyclic garbage; edges on cycles:")
        for edge, count in cycle_edges(garbage).most_common(40):
            print(f"  {count:5d}  {edge}")
    return found


def cycle_edges(objects) -> Counter:
    """``type.attr -> type`` edge counts among the ``objects`` on cycles."""
    by_id = {id(obj): obj for obj in objects}
    out = {key: {id(ref) for ref in gc.get_referents(obj) if id(ref) in by_id}
           for key, obj in by_id.items()}
    while True:
        # peel off what only hangs off a cycle: no way in or no way out
        into = Counter(dst for dsts in out.values() for dst in dsts)
        tails = {key for key, dsts in out.items()
                 if not dsts or not into[key]}
        if not tails:
            break
        for key in tails:
            del out[key]
        for dsts in out.values():
            dsts -= tails
    return Counter(f"{_name(by_id[src])}{_attr(by_id[src], by_id[dst])} -> "
                   f"{_name(by_id[dst])}"
                   for src, dsts in out.items() for dst in dsts)


def _name(obj) -> str:
    if isinstance(obj, types.FunctionType):
        return f"function {obj.__qualname__}"
    if isinstance(obj, types.MethodType):
        return f"method {obj.__func__.__qualname__}"
    return type(obj).__name__


def _attr(src, dst) -> str:
    if isinstance(src, types.CellType):
        return ".cell_contents"
    names = [*getattr(src, "__dict__", ()), "__dict__", "__self__",
             "__func__", "__closure__", "__defaults__", "func", "args"]
    for cls in type(src).__mro__:
        slots = getattr(cls, "__slots__", ())
        names.extend((slots,) if isinstance(slots, str) else slots)
    for name in names:
        if getattr(src, name, None) is dst:
            return f".{name}"
    if isinstance(src, (dict, list, tuple, set)):
        return "[]"
    return " ?"
