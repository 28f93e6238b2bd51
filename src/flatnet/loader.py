"""Reading scenario YAML: one pass over PyYAML's event stream.

The event stream comes from libyaml's parser when PyYAML was built with
it and from PyYAML's pure-Python parser otherwise.  No node tree is
composed: plain dicts and lists are built on an explicit stack, and each
distinct scalar is resolved and constructed once, with PyYAML's YAML 1.1
meaning, so the document equals what ``yaml.load`` gives.  A scenario is
a tree of names and numbers, so what would make it anything else is
rejected where it appears: an anchor, an alias or a merge key (``<<``),
as ``tasks[1]: found anchor &a0; a scenario has no anchors, aliases or
merge keys (line 5:16)``, and a container tagged as anything but a
mapping or a sequence (``!!set``, ``!!omap``, ``!!pairs``, ``!foo``),
since no scenario field holds one.  A document whose text nests more
than MAX_DEPTH containers deep is rejected at the first container past
the limit (``seed[0]...[0]: nested too deeply (line 5:106)``), on either
parser.  A loaded value is thus a tree no deeper than MAX_DEPTH, which
grows linearly with its text.  Errors are ScenarioErrors carrying a
field path and the 1-based line and column of the offending node; a
syntax error, and a character YAML rejects (a control character, a
lone surrogate), is placed at its line and column too, on either
parser, with a one-line message (``not valid YAML: while parsing a flow
sequence, did not find expected ',' or ']' (line 5:1)``).
"""

from __future__ import annotations

import yaml
from yaml.composer import ComposerError

# libyaml's parser when PyYAML was built with it; the pure-Python one otherwise
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# nesting depth past which a document is rejected; a scenario nests 5 deep
MAX_DEPTH = 100


class ScenarioError(ValueError):
    """Config rejection; carries the offending field path when known and,
    from ``load_scenario``, the 1-based line and column of its YAML node."""

    def __init__(self, message: str, where: str | None = None, mark=None):
        self.message, self.where = message, where
        self.line = self.column = None
        text = message if where is None else f"{where}: {message}"
        if mark is not None:  # a PyYAML Mark, 0-based
            self.line, self.column = mark.line + 1, mark.column + 1
            text += f" (line {self.line}:{self.column})"
        super().__init__(text)


class _EventWalk:
    """Builds a document from the event stream of a PyYAML loader; mixed in
    ahead of the loader class.  No node tree is composed.

    ``yaml.load`` composes a node per value and then makes one resolver and
    one constructor call per node.  Here the implicit tag of a plain scalar
    is resolved once per distinct value, and each distinct (tag, value)
    scalar is constructed once, by the loader's own ``construct_object``,
    so every value keeps PyYAML's YAML 1.1 meaning (``1e-10`` is a string,
    ``017`` octal, ``yes`` a boolean).  Containers are built on an explicit
    stack of open frames.  A value key (``=``) is read as the string '=',
    as ``flatten_mapping`` reads it.  An anchor, an alias or a merge key is
    rejected at its event, and so is a container whose tag is not the
    default mapping or sequence tag (so ``!!str {=: 5}``, which PyYAML
    reads as '5', is an error here).  A document whose text nests deeper
    than MAX_DEPTH is rejected at the first event past the limit.  The
    result equals ``yaml.load``'s, or ``document`` raises ScenarioError.
    """

    @classmethod
    def read(cls, text: str, source: str):
        """The single document of ``text`` (None when empty)."""
        try:
            loader = cls(text)  # PyYAML's own reader checks a whole str here
            try:
                return loader._walk(source)
            finally:
                loader.dispose()
        # libyaml encodes a str as UTF-8 before it reads any of it, which
        # fails on a lone surrogate
        except (yaml.YAMLError, UnicodeEncodeError) as e:
            # a reader error carries an offset, in characters from PyYAML's reader and
            # in UTF-8 bytes from libyaml; both stop at the first character YAML rejects
            if isinstance(e, (yaml.reader.ReaderError, UnicodeEncodeError)):
                bad = yaml.reader.Reader.NON_PRINTABLE.search(text).start()
                problem = f"unacceptable character #x{ord(text[bad]):04x}: {e.reason}"
                mark = mark_after(text[:bad], source)
            else:  # PyYAML's own text spans lines and quotes the source; keep its parts
                problem = ", ".join(filter(None, (getattr(e, "context", None), getattr(e, "problem", None))))
                mark = getattr(e, "problem_mark", None)
            raise ScenarioError(f"not valid YAML: {problem}", source, mark) from None

    def _walk(self, source: str):
        get_event, resolve = self.get_event, self.resolve
        scalars: dict = {}  # (tag, value) -> constructed scalar
        plain: dict = {}  # plain scalar value -> constructed scalar
        seq_tag, map_tag = self.DEFAULT_SEQUENCE_TAG, self.DEFAULT_MAPPING_TAG
        stack = [_Frame(_LIST, [], None)]  # its list receives the root

        def fail(message, event):
            raise ScenarioError(message, _here(stack, source), event.start_mark)

        def not_a_tree(what, event):
            fail(f"found {what}; a scenario has no anchors, aliases or merge keys", event)

        def scalar(tag, value, event):
            obj = scalars.get((tag, value), _NOKEY)
            if obj is _NOKEY:
                node = yaml.ScalarNode(tag, value, event.start_mark, event.end_mark, event.style)
                try:
                    obj = self.construct_object(node, deep=True)
                # what PyYAML's scalar constructors raise beyond YAMLError: an
                # int past the digit limit, a bad date, ``!!bool maybe``, ``!!int ''``
                except (ValueError, KeyError, IndexError, AttributeError) as e:
                    fail(f"cannot read {tag.rsplit(':', 1)[-1]} value: {e}", event)
                del self.constructed_objects[node]
                scalars[(tag, value)] = obj
            return obj

        self.get_event()  # the stream start
        if self.check_event(yaml.StreamEndEvent):
            return None
        get_event()  # the document start
        root_mark = self.peek_event().start_mark
        while True:
            event = get_event()
            cls = event.__class__
            top = stack[-1]
            if cls is yaml.ScalarEvent:
                if event.anchor is not None:
                    not_a_tree(f"anchor &{event.anchor}", event)
                value, tag = event.value, event.tag
                key_slot = top.kind is _MAP and top.key is _NOKEY  # merge and value keys read here
                if tag is None and event.implicit[0] and not key_slot:
                    obj = plain.get(value, _NOKEY)
                    if obj is _NOKEY:
                        tag = resolve(yaml.ScalarNode, value, event.implicit)
                        obj = plain[value] = scalar(tag, value, event)
                else:
                    if tag is None or tag == "!":
                        tag = resolve(yaml.ScalarNode, value, event.implicit)
                    if key_slot and tag == _MERGE_TAG:
                        not_a_tree("merge key", event)
                    obj = scalar(_STR_TAG if key_slot and tag == _VALUE_TAG else tag, value, event)
                if top.kind is _LIST:
                    top.obj.append(obj)
                elif key_slot:
                    top.key = obj
                else:
                    top.obj[top.key] = obj
                    top.key = _NOKEY
            elif cls is yaml.SequenceStartEvent or cls is yaml.MappingStartEvent:
                if len(stack) > MAX_DEPTH:
                    fail("nested too deeply", event)
                if top.kind is _MAP and top.key is _NOKEY:
                    fail("found unhashable key", event)
                if event.anchor is not None:
                    not_a_tree(f"anchor &{event.anchor}", event)
                mapping = cls is yaml.MappingStartEvent
                if event.tag not in (None, "!", map_tag if mapping else seq_tag):
                    fail(f"tag {event.tag} is not a scenario mapping or sequence", event)
                obj = {} if mapping else []
                stack.append(_Frame(_MAP if mapping else _LIST, obj, _next_name(top)))
                if top.kind is _LIST:
                    top.obj.append(obj)
                else:
                    top.obj[top.key] = obj
                    top.key = _NOKEY
            elif cls is yaml.AliasEvent:
                not_a_tree(f"alias *{event.anchor}", event)
            elif cls is yaml.DocumentEndEvent:
                break
            else:  # the end of a sequence or mapping
                stack.pop()
        if not self.check_event(yaml.StreamEndEvent):
            raise ComposerError("expected a single document in the stream", root_mark,
                                "but found another document", get_event().start_mark)
        return stack[0].obj[0]


class _Frame:
    """An open container of the walk: ``obj`` the list or dict its events
    fill, ``name`` its key or index in the enclosing frame."""

    __slots__ = ("kind", "obj", "name", "key")

    def __init__(self, kind, obj, name):
        self.kind, self.obj, self.name, self.key = kind, obj, name, _NOKEY


# frame kinds: a list; a mapping (its key slot reads merge and value keys)
_LIST, _MAP = range(2)
_NOKEY = object()  # a mapping frame waiting for its next key
_MERGE_TAG, _VALUE_TAG, _STR_TAG = (f"tag:yaml.org,2002:{t}" for t in ("merge", "value", "str"))


def _next_name(frame):
    """The key or index the next value of ``frame`` goes under (None for a key)."""
    if frame.kind is _LIST:
        return len(frame.obj)
    return None if frame.key is _NOKEY else frame.key


def _here(stack, source: str) -> str:
    """The field path at which the walk's current event lands."""
    names = [frame.name for frame in stack[2:]] + [_next_name(stack[-1])]
    where = ""
    for frame, name in zip(stack[1:], names):
        if name is None:
            break
        if frame.kind is _LIST:
            where += f"[{name}]"
        else:
            where = f"{where}.{name}" if where else str(name)
    return where or source


class _Loader(_EventWalk, _YAML_LOADER):
    pass


_DOCUMENT_START = yaml.Mark("<document>", 0, 0, 0, None, None)  # of an empty one


def mark_after(before: str, name: str):
    """Mark of the character that follows the text ``before`` it, with lines
    broken where YAML breaks them (CR LF, CR, LF, NEL, LS, PS)."""
    lines = (before + "_").splitlines()  # the last line ends at that character
    return yaml.Mark(name, len(before), len(lines) - 1, len(lines[-1]) - 1, None, None)


def _mark_of(loader, where: str | None, source: str):
    """Start mark of the node at field path ``where``, or of the nearest
    enclosing one, in the document of a fresh ``loader``.  Error path
    only: it composes the node tree of a document the walk has read, so
    a tree within MAX_DEPTH."""
    try:
        best = root = loader.get_single_node()
        todo = [("", root)] if root is not None and where not in (None, source) else []
        while todo:
            prefix, node = todo.pop()
            for path, child in _fields(loader, prefix, node):
                if path == where:
                    return child.start_mark
                if where.startswith(path) and where[len(path)] in ".[":
                    best = child
                    todo.append((path, child))
    finally:
        loader.dispose()
    return best.start_mark if best is not None else _DOCUMENT_START


def _fields(loader, prefix: str, node):
    """(field path, child node) for each entry of ``node``."""
    if isinstance(node, yaml.SequenceNode):
        for i, child in enumerate(node.value):
            yield f"{prefix}[{i}]", child
    elif isinstance(node, yaml.MappingNode):
        for knode, child in node.value:
            if isinstance(knode, yaml.ScalarNode):
                # a value key names itself, as the walk reads it
                name = knode.value if knode.tag == _VALUE_TAG else loader.construct_object(knode)
                yield f"{prefix}.{name}" if prefix else str(name), child
