"""Reading scenario YAML: one pass over PyYAML's event stream.

The event stream comes from libyaml's parser when PyYAML was built with
it and from PyYAML's pure-Python parser otherwise.  No node tree is
composed: plain dicts and lists are built on an explicit stack, and each
distinct scalar is resolved and constructed once, with PyYAML's YAML 1.1
meaning, so the document equals what ``yaml.load`` gives.  A container tagged
as anything but a mapping or a sequence (``!!set``, ``!!omap``,
``!!pairs``, ``!foo``) is rejected where it appears, since no scenario
field holds one; a merge (``<<``) value is the exception.  A document
whose text nests more than MAX_DEPTH containers deep is rejected at the
first container past the limit (``seed[0]...[0]: nested too deeply
(line 5:106)``), on either parser.  An alias adds no depth: a chain of
anchors, each holding an alias to the one before, builds a value nested
deeper than the text, so code that recurses into a loaded value must
still expect RecursionError.  Errors are ScenarioErrors carrying a field
path and the 1-based line and column of the offending node; a character
YAML rejects (a control character) is placed at its line and column
too, on either parser.
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
    stack of open frames, registered under their anchor at their start
    event (a recursive alias contains itself), and merge (``<<``) and value
    (``=``) keys are applied in place at the mapping's end event, with
    ``flatten_mapping``'s meaning.  A container whose tag is not the
    default mapping or sequence tag is rejected at its start event (so
    ``!!str {=: 5}``, which PyYAML reads as '5', is an error here), except
    a merge value without an anchor: ``flatten_mapping`` reads that as a
    plain container whatever its tag, and so does the walk.  A document
    whose text nests deeper than MAX_DEPTH is rejected at the first event
    past the limit.  The result equals ``yaml.load``'s, or ``document``
    raises ScenarioError.
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
        except yaml.YAMLError as e:
            mark = getattr(e, "problem_mark", None)
            # a reader error carries an offset, in characters from PyYAML's reader and
            # in UTF-8 bytes from libyaml; both stop at the first character YAML rejects
            if isinstance(e, yaml.reader.ReaderError):
                bad = yaml.reader.Reader.NON_PRINTABLE.search(text).start()
                mark = mark_after(text[:bad], source)
            loc = f" at line {mark.line + 1}:{mark.column + 1}" if mark is not None else ""
            raise ScenarioError(f"not valid YAML{loc}: {e}", source) from None

    def _walk(self, source: str):
        get_event, resolve = self.get_event, self.resolve
        scalars: dict = {}  # (tag, value) -> constructed scalar
        plain: dict = {}  # plain scalar value -> constructed scalar
        anchors: dict = {}  # anchor -> (object, start mark)
        seq_tag, map_tag = self.DEFAULT_SEQUENCE_TAG, self.DEFAULT_MAPPING_TAG
        stack = [_Frame(_LIST, [], None)]  # its list receives the root

        def fail(message, event):
            raise ScenarioError(message, _here(stack, source), event.start_mark)

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

        def put(top, obj, event):
            """Hand a scalar, an alias or a container to the open frame ``top``."""
            key = top.key
            if top.kind is _LIST:
                top.obj.append(obj)
            elif key is _NOKEY:
                top.key = obj
            elif key is _MERGE:  # a mapping, or a list of them of which the last wins
                top.merges = top.merges or []
                for source in reversed(obj) if obj.__class__ is list else (obj,):
                    if source.__class__ is not dict:
                        found = "sequence" if source.__class__ is list else "scalar"
                        fail("expected a mapping or list of mappings for merging, "
                             f"but found {found}", event)
                    top.merges.append(source)
                top.key = _NOKEY
            else:
                top.obj[key] = obj
                top.key = _NOKEY

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
                value, tag = event.value, event.tag
                key_slot = top.kind is _MAP and top.key is _NOKEY  # merge and value keys apply
                if tag is None and event.implicit[0] and not key_slot:
                    obj = plain.get(value, _NOKEY)
                    if obj is _NOKEY:
                        tag = resolve(yaml.ScalarNode, value, event.implicit)
                        obj = plain[value] = scalar(tag, value, event)
                else:
                    if tag is None or tag == "!":
                        tag = resolve(yaml.ScalarNode, value, event.implicit)
                    if key_slot and tag == _MERGE_TAG:
                        top.key = _MERGE
                        continue
                    obj = scalar(_STR_TAG if key_slot and tag == _VALUE_TAG else tag, value, event)
                if event.anchor is not None:
                    self._anchor(anchors, event, obj)
                if top.kind is _LIST:
                    top.obj.append(obj)
                else:
                    put(top, obj, event)
            elif cls is yaml.SequenceStartEvent or cls is yaml.MappingStartEvent:
                if len(stack) > MAX_DEPTH:
                    fail("nested too deeply", event)
                if top.kind is _MAP and top.key is _NOKEY:
                    fail("found unhashable key", event)
                mapping = cls is yaml.MappingStartEvent
                # a merge value is read as a plain container, as flatten_mapping
                # reads it, unless an alias could read it elsewhere
                merging = top.key is _MERGE
                if (event.tag not in (None, "!", map_tag if mapping else seq_tag)
                        and (not merging or event.anchor is not None)):
                    fail(f"tag {event.tag} is not a scenario mapping or sequence", event)
                obj = {} if mapping else []
                if event.anchor is not None:
                    self._anchor(anchors, event, obj)
                frame = _Frame(_MAP if mapping else _LIST, obj, _next_name(top))
                if not merging:  # a merge value is merged at its end
                    put(top, obj, event)
                stack.append(frame)
            elif cls is yaml.AliasEvent:
                try:
                    obj = anchors[event.anchor][0]
                except KeyError:
                    raise ComposerError(
                        None, None, f"found undefined alias {event.anchor!r}", event.start_mark
                    ) from None
                if top.kind is _MAP and top.key is _NOKEY:
                    try:
                        hash(obj)
                    except TypeError:
                        fail("found unhashable key", event)
                put(top, obj, event)
            elif cls is yaml.DocumentEndEvent:
                break
            else:  # the end of a sequence or mapping
                frame = stack.pop()
                obj = frame.obj
                if frame.merges:
                    merged = [item for m in frame.merges for item in m.items()]
                    own = list(obj.items())
                    obj.clear()
                    obj.update(merged)
                    obj.update(own)
                if stack[-1].key is _MERGE:
                    put(stack[-1], obj, event)
        if not self.check_event(yaml.StreamEndEvent):
            raise ComposerError("expected a single document in the stream", root_mark,
                                "but found another document", get_event().start_mark)
        return stack[0].obj[0]

    @staticmethod
    def _anchor(anchors, event, obj):
        if event.anchor in anchors:
            raise ComposerError(f"found duplicate anchor {event.anchor!r}; first occurrence",
                                anchors[event.anchor][1], "second occurrence", event.start_mark)
        anchors[event.anchor] = (obj, event.start_mark)


class _Frame:
    """An open container of the walk: ``obj`` the list or dict its events
    fill, ``name`` its key or index in the enclosing frame."""

    __slots__ = ("kind", "obj", "name", "key", "merges")

    def __init__(self, kind, obj, name):
        self.kind, self.obj, self.name = kind, obj, name
        self.key, self.merges = _NOKEY, None


# frame kinds: a list; a mapping (merge and value keys apply)
_LIST, _MAP = range(2)
_NOKEY = object()  # a mapping frame waiting for its next key
_MERGE = object()  # a mapping frame waiting for a merge key's value
_MERGE_TAG, _VALUE_TAG, _STR_TAG = (f"tag:yaml.org,2002:{t}" for t in ("merge", "value", "str"))


def _next_name(frame):
    """The key or index the next value of ``frame`` goes under (None for a key)."""
    if frame.kind is _LIST:
        return len(frame.obj)
    key = frame.key
    return None if key is _NOKEY else "<<" if key is _MERGE else key


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
    one within MAX_DEPTH."""
    best = None
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
    # flatten_mapping recurses along a chain of merged aliases, which the
    # walk merged without recursion: the enclosing node's mark will do
    except RecursionError:
        pass
    finally:
        loader.dispose()
    return best.start_mark if best is not None else _DOCUMENT_START


def _fields(loader, prefix: str, node):
    """(field path, child node) for each entry of ``node``."""
    if isinstance(node, yaml.SequenceNode):
        for i, child in enumerate(node.value):
            yield f"{prefix}[{i}]", child
    elif isinstance(node, yaml.MappingNode):
        loader.flatten_mapping(node)
        for knode, child in node.value:
            if isinstance(knode, yaml.ScalarNode):
                name = loader.construct_object(knode)
                yield f"{prefix}.{name}" if prefix else str(name), child

