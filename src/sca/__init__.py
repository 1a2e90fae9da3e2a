"""Semi-classical arithmetic toolkit.

Submodules:

- formulas: first-order arithmetic AST, parser, printer, evaluation
- hierarchy: quantifier-alternation classification and the Sigma/Pi
  class lattice; re-exports ClassLit and class_lit_subset from nodes
- duality: the prenex dual operator and its laws
- nodes: principle catalog, node grammar (one reader, one canonical
  printer) and the class-literal order, one rank (class_lit_subset)
- principles: restricted classical principle schemas and their instances
- ipc: intuitionistic propositional decision procedure
- derivability: Horn-rule closure engine over the principle lattice
- cli: command-line front end

Every record type of the package derives from Record, defined here: every
process loads this module, so records cost a process no module of its own
and no class built at import time.
"""

from operator import attrgetter

__version__ = "0.1.0"


class Record:
    """An immutable record.  A subclass states its fields once, as the names
    in its __slots__ that do not start with "_"; a slot whose name does is
    private state (a stored hash, a memo) that equality, hashing and repr
    skip.  A record is built from its fields in order, by position or by
    keyword.  Two records are equal when they are of the same class and
    their fields are equal; the hash is that of the tuple of the fields,
    and repr reads Name(field=value, ...).  A field cannot be assigned once
    the record is built, since hashes and memo keys rely on it.

    _setters holds a function per slot that sets it on a record: the
    fields' in order, then the private slots'.  They are the slots' own
    setters, which __setattr__ does not reach; an __init__ that checks or
    computes a field uses them, and so does the one here.  Each costs less
    than object.__setattr__, which looks the slot up by name."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())]
        fields = tuple(name for name in slots if not name.startswith("_"))
        private = [name for name in slots if name.startswith("_")]
        cls._fields = fields
        cls._setters = tuple(getattr(cls, name).__set__ for name in (*fields, *private))
        # the fields' values as a tuple, as a function of a record
        if len(fields) > 1:
            values = attrgetter(*fields)
        elif fields:
            values = lambda r, get=attrgetter(*fields): (get(r),)
        else:
            values = lambda r: ()
        cls._values = staticmethod(values)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):  # the fields' setters
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The values of the fields, in order, from a constructor's
        positional and keyword arguments."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in given:
                raise TypeError(f"{cls.__name__} got an unexpected or repeated field {name!r}")
            given[name] = value
        missing = [name for name in fields if name not in given]
        if missing:
            raise TypeError(f"{cls.__name__} is missing the fields {missing}")
        return [given[name] for name in fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class HashedRecord(Record):
    """A record that stores its hash: its __init__ sets _hash, the last of
    its slots, to the hash of its fields' tuple, which is what Record's
    hash would compute.  The hash of a record nested n deep then costs
    O(1), not a walk of n levels."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash
