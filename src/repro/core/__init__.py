"""MROM — the Mutable Reflective Object Model.

This package is the paper's primary contribution: objects split into
fixed and extensible sections, bundled meta-methods, a level-0 invocation
primitive beneath an optional tower of meta-invoke levels, per-item ACLs
coupling security with encapsulation, and weak typing with generic
coercion.

Quick start::

    from repro.core import MROMObject, Kind

    obj = MROMObject(display_name="greeter")
    obj.define_fixed_data("greeting", "hello")
    obj.define_fixed_method(
        "greet", "return self.get('greeting') + ', ' + str(args[0])"
    )
    obj.seal()
    obj.invoke("greet", ["world"])   # -> 'hello, world'
"""

from .acl import (
    AccessControlList,
    AclEntry,
    ANONYMOUS,
    Decision,
    Permission,
    Principal,
    SYSTEM,
    allow_all,
    deny_all,
    domain_acl,
    owner_only,
    principals_acl,
)
from .code import CodeRole, MethodCode, NativeCode, PortableCode, as_code
from .containers import ContainerSet, ItemContainer, MutationClock
from .fastpath import InvocationCache
from .errors import (
    AccessDeniedError,
    CoercionError,
    DuplicateItemError,
    FixedSectionError,
    InvocationError,
    ItemNotFoundError,
    MROMError,
    MethodNotFoundError,
    MobilityError,
    NotPortableError,
    PostProcedureError,
    PreProcedureVeto,
    SandboxViolation,
    SealedContainerError,
    SecurityError,
    StaleHandleError,
    StructureError,
)
from .introspection import (
    ObjectDescription,
    can_invoke,
    describe,
    find_methods,
    interrogate,
)
from .invocation import (
    InvocationContext,
    InvocationRecord,
    Invoker,
    MAX_META_LEVELS,
    Phase,
    TraceEvent,
)
from .items import DataItem, ItemDescription, ItemHandle, MROMMethod
from .mobject import META_METHOD_NAMES, MROMObject, SelfView
from .specialization import (
    DataSpec,
    MethodSpec,
    ObjectTemplate,
    clone,
    clone_code,
)
from .values import HtmlText, Kind, coerce, conforms, kind_of, strip_html

__all__ = [
    # model
    "MROMObject",
    "SelfView",
    "META_METHOD_NAMES",
    "ObjectTemplate",
    "DataSpec",
    "MethodSpec",
    "clone",
    "clone_code",
    # items & containers
    "DataItem",
    "MROMMethod",
    "ItemDescription",
    "ItemHandle",
    "ItemContainer",
    "ContainerSet",
    "MutationClock",
    # fast path
    "InvocationCache",
    # code carriers
    "CodeRole",
    "MethodCode",
    "NativeCode",
    "PortableCode",
    "as_code",
    # invocation
    "Invoker",
    "InvocationContext",
    "InvocationRecord",
    "Phase",
    "TraceEvent",
    "MAX_META_LEVELS",
    # security
    "Principal",
    "Permission",
    "AccessControlList",
    "AclEntry",
    "Decision",
    "SYSTEM",
    "ANONYMOUS",
    "allow_all",
    "deny_all",
    "owner_only",
    "domain_acl",
    "principals_acl",
    # weak typing
    "Kind",
    "HtmlText",
    "kind_of",
    "coerce",
    "conforms",
    "strip_html",
    # introspection
    "ObjectDescription",
    "describe",
    "interrogate",
    "can_invoke",
    "find_methods",
    # errors
    "MROMError",
    "StructureError",
    "ItemNotFoundError",
    "MethodNotFoundError",
    "DuplicateItemError",
    "FixedSectionError",
    "SealedContainerError",
    "StaleHandleError",
    "SecurityError",
    "AccessDeniedError",
    "InvocationError",
    "PreProcedureVeto",
    "PostProcedureError",
    "CoercionError",
    "MobilityError",
    "NotPortableError",
    "SandboxViolation",
]
