"""Frozen records without `dataclass`, which loads `inspect`, `ast`, `dis` and
`tokenize`.  `@record` reads the annotated fields in order, each with no default,
a plain one or `field(default=..., compare=..., repr=...)`, and gives the class an
`__init__` by position or keyword, `==`, `hash`, `repr` and no assignment."""

_MISSING = object()


class field:
    """A record's field: its default, and whether `==`, `hash` and `repr` read it."""

    def __init__(self, *, default=_MISSING, compare=True, repr=True):
        self.name, self.default, self.compare, self.repr = None, default, compare, repr


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r} of a record")


def record(cls):
    spec = [f if isinstance(f := cls.__dict__.get(name, _MISSING), field) else field(default=f)
            for name in cls.__annotations__]
    for name, f in zip(cls.__annotations__, spec):
        f.name = name
        if name in cls.__dict__:  # the class attribute is the default, if any
            delattr(cls, name) if f.default is _MISSING else setattr(cls, name, f.default)
    names, allowed = tuple(cls.__annotations__), set(cls.__annotations__)
    defaults = {f.name: f.default for f in spec if f.default is not _MISSING}
    compared, shown = [f.name for f in spec if f.compare], [f.name for f in spec if f.repr]
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        values = dict(defaults, **dict(zip(names, args)), **kwargs)  # a repeated one raises
        if len(args) > len(names) or values.keys() != allowed:  # too many, missing, unknown
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        self.__dict__.update(values)
        if post_init:
            self.__post_init__()  # looked up each time, so a patched one runs

    def key(self):
        return tuple([getattr(self, name) for name in compared])

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    cls.__record_fields__ = tuple(spec)
    cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, lambda self: hash(key(self))
    cls.__repr__, cls.__setattr__, cls.__delattr__ = __repr__, _frozen, _frozen
    return cls


def fields(record_or_class) -> tuple[field, ...]:
    return record_or_class.__record_fields__


def replace(obj, /, **changes):
    """A copy of the record `obj` with `changes`, made through its `__init__`."""
    return type(obj)(**{**{f.name: getattr(obj, f.name) for f in fields(obj)}, **changes})
