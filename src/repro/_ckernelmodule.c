/* Compiled kernel tier: C implementations of the simulation hot paths.
 *
 * This module mirrors the pure-Python kernel byte-for-byte:
 *
 *   - Event / EventQueue / Simulator  <->  repro.sim.engine
 *   - UndoRecord / CheckpointLogBuffer / make_log_observer
 *                                     <->  repro.safetynet.log + the
 *                                          SafetyNet.register_store observer
 *
 * Byte-identity contract (DESIGN.md par.10): dispatch order is a pure
 * function of the (time, priority, seq) ordering keys, every counter keeps
 * the pure tier's lazy-creation semantics, and no behaviour may depend on
 * the heap's internal arrangement.  The heap here is a C array of
 * {time, priority, seq, event} structs -- no tuple allocation and no rich
 * comparisons -- but it pops in exactly the order heapq would, so reports,
 * golden digests and spec hashes are unchanged.
 *
 * Selection lives in repro.kernel (REPRO_KERNEL=auto|pure|compiled); this
 * module is imported lazily and is entirely optional -- nothing in the
 * repository requires it to exist.  Build with `python tools/build_kernel.py`.
 *
 * All simulation times and sequence numbers are C long longs.  The pure
 * kernel documents the same bound (run() uses 1 << 62 as its sentinel), and
 * every producer in the tree schedules at integer cycles, so the narrowing
 * from Python ints is exact; a non-int time raises TypeError rather than
 * silently diverging from the pure tier.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>

#if defined(__clang__)
#define CKERNEL_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define CKERNEL_COMPILER "gcc " __VERSION__
#else
#define CKERNEL_COMPILER "unknown"
#endif

/* sha256 of this file, passed by setup.py; repro.kernel refuses a build
 * whose digest differs from the source next to it (a stale build). */
#ifndef CKERNEL_SOURCE_SHA256
#define CKERNEL_SOURCE_SHA256 ""
#endif

#define FREELIST_MAX 8192
#define COMPACT_MIN_ENTRIES 512
#define TIME_SENTINEL (1LL << 62)

/* Set at module init from repro.sim.engine so both tiers raise the same
 * exception class. */
static PyObject *SimulationError = NULL;
static PyObject *empty_string = NULL;

/* ------------------------------------------------------------------ Event */

typedef struct {
    PyObject_HEAD
    long long time;
    long priority;
    long long seq;
    PyObject *callback;     /* NULL means None */
    PyObject *label;        /* never NULL once constructed */
    PyObject *queue;        /* owning CEventQueue, NULL means None */
    char cancelled;
    char is_static;
} CEvent;

typedef struct {
    long long time;
    long priority;
    long long seq;
    CEvent *ev;             /* strong reference */
} HeapEntry;

typedef struct {
    PyObject_HEAD
    HeapEntry *heap;
    Py_ssize_t heap_size;
    Py_ssize_t heap_cap;
    PyObject **free_pool;   /* strong references, LIFO */
    Py_ssize_t free_size;
    long long seq;
    Py_ssize_t live;
    long long compactions;
} CEventQueue;

static PyTypeObject CEvent_Type;
static PyTypeObject CEventQueue_Type;
static PyTypeObject CDrainIter_Type;
static PyTypeObject CSimulator_Type;

static void queue_compact(CEventQueue *q);

static inline int
entry_less(const HeapEntry *a, const HeapEntry *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->priority != b->priority)
        return a->priority < b->priority;
    return a->seq < b->seq;
}

/* ---- heap primitives (identical pop order to heapq on tuple keys) ---- */

static int
heap_reserve(CEventQueue *q)
{
    if (q->heap_size < q->heap_cap)
        return 0;
    Py_ssize_t cap = q->heap_cap ? q->heap_cap * 2 : 256;
    HeapEntry *heap = PyMem_Realloc(q->heap, (size_t)cap * sizeof(HeapEntry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    q->heap = heap;
    q->heap_cap = cap;
    return 0;
}

static void
heap_bubble_up(HeapEntry *heap, Py_ssize_t pos)
{
    HeapEntry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (entry_less(&item, &heap[parent])) {
            heap[pos] = heap[parent];
            pos = parent;
        }
        else
            break;
    }
    heap[pos] = item;
}

static void
heap_bubble_down(HeapEntry *heap, Py_ssize_t size, Py_ssize_t pos)
{
    HeapEntry item = heap[pos];
    Py_ssize_t child;
    while ((child = 2 * pos + 1) < size) {
        if (child + 1 < size && entry_less(&heap[child + 1], &heap[child]))
            child++;
        if (entry_less(&heap[child], &item)) {
            heap[pos] = heap[child];
            pos = child;
        }
        else
            break;
    }
    heap[pos] = item;
}

/* Push an entry; steals the caller's reference to entry.ev. */
static int
heap_push_entry(CEventQueue *q, HeapEntry entry)
{
    if (heap_reserve(q) < 0) {
        Py_DECREF(entry.ev);
        return -1;
    }
    q->heap[q->heap_size++] = entry;
    heap_bubble_up(q->heap, q->heap_size - 1);
    return 0;
}

/* Pop the root; the caller owns the returned entry's event reference.
 * Must only be called with heap_size > 0. */
static HeapEntry
heap_pop_root(CEventQueue *q)
{
    HeapEntry root = q->heap[0];
    q->heap_size--;
    if (q->heap_size > 0) {
        q->heap[0] = q->heap[q->heap_size];
        heap_bubble_down(q->heap, q->heap_size, 0);
    }
    return root;
}

/* ---- freelist ---- */

static inline void
freelist_put(CEventQueue *q, CEvent *ev)
{
    if (q->free_size < FREELIST_MAX) {
        if (q->free_pool == NULL) {
            q->free_pool = PyMem_Malloc(FREELIST_MAX * sizeof(PyObject *));
            if (q->free_pool == NULL)
                return;         /* just skip pooling on allocation failure */
        }
        Py_INCREF(ev);
        q->free_pool[q->free_size++] = (PyObject *)ev;
    }
}

/* Pool a cancelled entry skimmed off the heap (cancel() already nulled the
 * callback and disowned the queue). */
static inline void
recycle_cancelled(CEventQueue *q, CEvent *ev)
{
    Py_INCREF(empty_string);
    Py_XSETREF(ev->label, empty_string);
    freelist_put(q, ev);
}

/* ------------------------------------------------------------ Event type */

static CEvent *
event_alloc(long long time, long priority, long long seq,
            PyObject *callback, PyObject *label)
{
    CEvent *ev = PyObject_GC_New(CEvent, &CEvent_Type);
    if (ev == NULL)
        return NULL;
    ev->time = time;
    ev->priority = priority;
    ev->seq = seq;
    Py_XINCREF(callback);
    ev->callback = callback;
    Py_INCREF(label);
    ev->label = label;
    ev->queue = NULL;
    ev->cancelled = 0;
    ev->is_static = 0;
    PyObject_GC_Track((PyObject *)ev);
    return ev;
}

static PyObject *
Event_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"time", "priority", "seq", "callback", "label",
                             "queue", NULL};
    long long time, seq;
    long priority;
    PyObject *callback, *label = NULL, *queue = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LlLO|UO", kwlist,
                                     &time, &priority, &seq, &callback,
                                     &label, &queue))
        return NULL;
    if (queue != Py_None && !Py_IS_TYPE(queue, &CEventQueue_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "queue must be a compiled EventQueue or None");
        return NULL;
    }
    CEvent *ev = event_alloc(time, priority, seq, callback,
                             label ? label : empty_string);
    if (ev == NULL)
        return NULL;
    if (queue != Py_None) {
        Py_INCREF(queue);
        ev->queue = queue;
    }
    return (PyObject *)ev;
}

static int
Event_traverse(CEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    Py_VISIT(self->label);
    Py_VISIT(self->queue);
    return 0;
}

static int
Event_clear_gc(CEvent *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->label);
    Py_CLEAR(self->queue);
    return 0;
}

static void
Event_dealloc(CEvent *self)
{
    PyObject_GC_UnTrack(self);
    Event_clear_gc(self);
    PyObject_GC_Del(self);
}

/* Shared cancel logic (Event.cancel / EventQueue.cancel / Simulator.cancel):
 * mirror of the pure tier's inlined bookkeeping. */
static void
event_cancel_internal(CEvent *self)
{
    if (self->cancelled)
        return;
    self->cancelled = 1;
    Py_CLEAR(self->callback);
    PyObject *queue = self->queue;
    if (queue != NULL) {
        self->queue = NULL;
        CEventQueue *q = (CEventQueue *)queue;
        Py_ssize_t live = q->live - 1;
        q->live = live;
        if (q->heap_size >= COMPACT_MIN_ENTRIES && live < (q->heap_size >> 1))
            queue_compact(q);
        Py_DECREF(queue);
    }
}

static PyObject *
Event_cancel(CEvent *self, PyObject *Py_UNUSED(ignored))
{
    event_cancel_internal(self);
    Py_RETURN_NONE;
}

static PyObject *
Event_repr(CEvent *self)
{
    return PyUnicode_FromFormat("<Event t=%lld p=%ld %R%s>",
                                self->time, self->priority, self->label,
                                self->cancelled ? " cancelled" : "");
}

static PyObject *
Event_get_time(CEvent *self, void *closure)
{
    return PyLong_FromLongLong(self->time);
}

static int
Event_set_time(CEvent *self, PyObject *value, void *closure)
{
    long long v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    self->time = v;
    return 0;
}

static PyObject *
Event_get_priority(CEvent *self, void *closure)
{
    return PyLong_FromLong(self->priority);
}

static int
Event_set_priority(CEvent *self, PyObject *value, void *closure)
{
    long v = PyLong_AsLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    self->priority = v;
    return 0;
}

static PyObject *
Event_get_seq(CEvent *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static int
Event_set_seq(CEvent *self, PyObject *value, void *closure)
{
    long long v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    self->seq = v;
    return 0;
}

static PyObject *
Event_get_callback(CEvent *self, void *closure)
{
    PyObject *cb = self->callback ? self->callback : Py_None;
    Py_INCREF(cb);
    return cb;
}

static int
Event_set_callback(CEvent *self, PyObject *value, void *closure)
{
    if (value == NULL || value == Py_None) {
        Py_CLEAR(self->callback);
        return 0;
    }
    Py_INCREF(value);
    Py_XSETREF(self->callback, value);
    return 0;
}

static PyObject *
Event_get_label(CEvent *self, void *closure)
{
    Py_INCREF(self->label);
    return self->label;
}

static int
Event_set_label(CEvent *self, PyObject *value, void *closure)
{
    if (value == NULL)
        value = empty_string;
    Py_INCREF(value);
    Py_XSETREF(self->label, value);
    return 0;
}

static PyObject *
Event_get_cancelled(CEvent *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static int
Event_set_cancelled(CEvent *self, PyObject *value, void *closure)
{
    int v = PyObject_IsTrue(value);
    if (v < 0)
        return -1;
    self->cancelled = (char)v;
    return 0;
}

static PyObject *
Event_get_static(CEvent *self, void *closure)
{
    return PyBool_FromLong(self->is_static);
}

static int
Event_set_static(CEvent *self, PyObject *value, void *closure)
{
    int v = PyObject_IsTrue(value);
    if (v < 0)
        return -1;
    self->is_static = (char)v;
    return 0;
}

static PyObject *
Event_get_queue(CEvent *self, void *closure)
{
    PyObject *q = self->queue ? self->queue : Py_None;
    Py_INCREF(q);
    return q;
}

static int
Event_set_queue(CEvent *self, PyObject *value, void *closure)
{
    if (value == NULL || value == Py_None) {
        Py_CLEAR(self->queue);
        return 0;
    }
    if (!Py_IS_TYPE(value, &CEventQueue_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "_queue must be a compiled EventQueue or None");
        return -1;
    }
    Py_INCREF(value);
    Py_XSETREF(self->queue, value);
    return 0;
}

static PyGetSetDef Event_getset[] = {
    {"time", (getter)Event_get_time, (setter)Event_set_time, NULL, NULL},
    {"priority", (getter)Event_get_priority, (setter)Event_set_priority,
     NULL, NULL},
    {"seq", (getter)Event_get_seq, (setter)Event_set_seq, NULL, NULL},
    {"callback", (getter)Event_get_callback, (setter)Event_set_callback,
     NULL, NULL},
    {"label", (getter)Event_get_label, (setter)Event_set_label, NULL, NULL},
    {"cancelled", (getter)Event_get_cancelled, (setter)Event_set_cancelled,
     NULL, NULL},
    {"static", (getter)Event_get_static, (setter)Event_set_static,
     NULL, NULL},
    {"_queue", (getter)Event_get_queue, (setter)Event_set_queue, NULL, NULL},
    {NULL}
};

static PyMethodDef Event_methods[] = {
    {"cancel", (PyCFunction)Event_cancel, METH_NOARGS,
     "Mark the event as cancelled; it will be dropped when reached."},
    {NULL}
};

static PyTypeObject CEvent_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Event",
    .tp_basicsize = sizeof(CEvent),
    .tp_dealloc = (destructor)Event_dealloc,
    .tp_repr = (reprfunc)Event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled counterpart of repro.sim.engine.Event.",
    .tp_traverse = (traverseproc)Event_traverse,
    .tp_clear = (inquiry)Event_clear_gc,
    .tp_methods = Event_methods,
    .tp_getset = Event_getset,
    .tp_new = Event_new,
};

/* ------------------------------------------------------- EventQueue type */

static CEventQueue *
queue_alloc(void)
{
    CEventQueue *q = PyObject_GC_New(CEventQueue, &CEventQueue_Type);
    if (q == NULL)
        return NULL;
    q->heap = NULL;
    q->heap_size = 0;
    q->heap_cap = 0;
    q->free_pool = NULL;
    q->free_size = 0;
    q->seq = 0;
    q->live = 0;
    q->compactions = 0;
    PyObject_GC_Track((PyObject *)q);
    return q;
}

static PyObject *
Queue_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "EventQueue() takes no arguments");
        return NULL;
    }
    return (PyObject *)queue_alloc();
}

static int
Queue_traverse(CEventQueue *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->heap_size; i++)
        Py_VISIT(self->heap[i].ev);
    for (Py_ssize_t i = 0; i < self->free_size; i++)
        Py_VISIT(self->free_pool[i]);
    return 0;
}

static int
Queue_clear_gc(CEventQueue *self)
{
    Py_ssize_t n = self->heap_size;
    self->heap_size = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_DECREF(self->heap[i].ev);
    n = self->free_size;
    self->free_size = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_DECREF(self->free_pool[i]);
    return 0;
}

static void
Queue_dealloc(CEventQueue *self)
{
    PyObject_GC_UnTrack(self);
    Queue_clear_gc(self);
    PyMem_Free(self->heap);
    PyMem_Free(self->free_pool);
    PyObject_GC_Del(self);
}

static void
queue_compact(CEventQueue *q)
{
    Py_ssize_t out = 0;
    for (Py_ssize_t i = 0; i < q->heap_size; i++) {
        CEvent *ev = q->heap[i].ev;
        if (ev->cancelled) {
            Py_INCREF(empty_string);
            Py_XSETREF(ev->label, empty_string);
            freelist_put(q, ev);
            Py_DECREF(ev);
        }
        else
            q->heap[out++] = q->heap[i];
    }
    q->heap_size = out;
    for (Py_ssize_t i = out / 2 - 1; i >= 0; i--)
        heap_bubble_down(q->heap, out, i);
    q->compactions++;
}

/* Core push shared by EventQueue.push and Simulator.schedule*.  Returns a
 * new reference to the scheduled event. */
static PyObject *
queue_push_internal(CEventQueue *q, long long time, long priority,
                    PyObject *callback, PyObject *label)
{
    if (time < 0) {
        PyErr_Format(SimulationError,
                     "cannot schedule event at negative time %lld", time);
        return NULL;
    }
    long long seq = q->seq++;
    CEvent *ev;
    if (q->free_size > 0) {
        ev = (CEvent *)q->free_pool[--q->free_size];   /* we own this ref */
        ev->time = time;
        ev->priority = priority;
        ev->seq = seq;
        Py_INCREF(callback);
        Py_XSETREF(ev->callback, callback);
        Py_INCREF(label);
        Py_XSETREF(ev->label, label);
        ev->cancelled = 0;
        Py_INCREF(q);
        Py_XSETREF(ev->queue, (PyObject *)q);
    }
    else {
        ev = event_alloc(time, priority, seq, callback, label);
        if (ev == NULL)
            return NULL;
        Py_INCREF(q);
        ev->queue = (PyObject *)q;
    }
    HeapEntry entry = {time, priority, seq, ev};
    Py_INCREF(ev);
    if (heap_push_entry(q, entry) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    q->live++;
    return (PyObject *)ev;
}

/* Parse (time, callback, priority=0, label="") from a fastcall. */
static int
parse_push_args(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                const char *who, long long *time, PyObject **callback,
                long *priority, PyObject **label)
{
    PyObject *slots[4] = {NULL, NULL, NULL, NULL};
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    if (nargs > 4 || total > 4 || total < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s expected 2 to 4 arguments, got %zd", who, total);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        slots[i] = args[i];
    if (kwnames) {
        static const char *names[4] = {"time", "callback", "priority",
                                       "label"};
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            int matched = 0;
            for (int s = 0; s < 4; s++) {
                if (PyUnicode_CompareWithASCIIString(name, names[s]) == 0) {
                    if (slots[s] != NULL) {
                        PyErr_Format(PyExc_TypeError,
                                     "%s got multiple values for '%s'",
                                     who, names[s]);
                        return -1;
                    }
                    slots[s] = args[nargs + i];
                    matched = 1;
                    break;
                }
            }
            if (!matched) {
                PyErr_Format(PyExc_TypeError,
                             "%s got an unexpected keyword argument %R",
                             who, name);
                return -1;
            }
        }
    }
    if (slots[0] == NULL || slots[1] == NULL) {
        PyErr_Format(PyExc_TypeError, "%s missing time/callback", who);
        return -1;
    }
    if (!PyLong_Check(slots[0])) {
        PyErr_Format(PyExc_TypeError, "%s: event time must be an int", who);
        return -1;
    }
    *time = PyLong_AsLongLong(slots[0]);
    if (*time == -1 && PyErr_Occurred())
        return -1;
    *callback = slots[1];
    if (slots[2] != NULL) {
        *priority = PyLong_AsLong(slots[2]);
        if (*priority == -1 && PyErr_Occurred())
            return -1;
    }
    else
        *priority = 0;
    *label = slots[3] != NULL ? slots[3] : empty_string;
    return 0;
}

static PyObject *
Queue_push(CEventQueue *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    long long time;
    long priority;
    PyObject *callback, *label;
    if (parse_push_args(args, nargs, kwnames, "push()", &time, &callback,
                        &priority, &label) < 0)
        return NULL;
    return queue_push_internal(self, time, priority, callback, label);
}

static PyObject *
Queue_push_static(CEventQueue *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "push_static() takes exactly 2 arguments");
        return NULL;
    }
    if (!Py_IS_TYPE(args[0], &CEvent_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "push_static() requires a compiled Event");
        return NULL;
    }
    CEvent *ev = (CEvent *)args[0];
    if (!PyLong_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "event time must be an int");
        return NULL;
    }
    long long time = PyLong_AsLongLong(args[1]);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    long long seq = self->seq++;
    ev->time = time;
    ev->seq = seq;
    ev->cancelled = 0;
    Py_INCREF(self);
    Py_XSETREF(ev->queue, (PyObject *)self);
    HeapEntry entry = {time, ev->priority, seq, ev};
    Py_INCREF(ev);
    if (heap_push_entry(self, entry) < 0)
        return NULL;
    self->live++;
    Py_RETURN_NONE;
}

static PyObject *
Queue_new_static_event(CEventQueue *self, PyObject *const *args,
                       Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *callback = NULL, *label = empty_string;
    long priority = 0;
    PyObject *slots[3] = {NULL, NULL, NULL};
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    if (nargs > 3 || total > 3 || total < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "new_static_event(callback, label='', priority=0)");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        slots[i] = args[i];
    if (kwnames) {
        static const char *names[3] = {"callback", "label", "priority"};
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            int matched = 0;
            for (int s = 0; s < 3; s++) {
                if (PyUnicode_CompareWithASCIIString(name, names[s]) == 0) {
                    slots[s] = args[nargs + i];
                    matched = 1;
                    break;
                }
            }
            if (!matched) {
                PyErr_Format(PyExc_TypeError,
                             "new_static_event() got an unexpected keyword "
                             "argument %R", name);
                return NULL;
            }
        }
    }
    callback = slots[0];
    if (slots[1] != NULL)
        label = slots[1];
    if (slots[2] != NULL) {
        priority = PyLong_AsLong(slots[2]);
        if (priority == -1 && PyErr_Occurred())
            return NULL;
    }
    CEvent *ev = event_alloc(0, priority, 0, callback, label);
    if (ev == NULL)
        return NULL;
    ev->is_static = 1;
    return (PyObject *)ev;
}

static PyObject *
Queue_pop(CEventQueue *self, PyObject *Py_UNUSED(ignored))
{
    while (self->heap_size) {
        HeapEntry entry = heap_pop_root(self);
        CEvent *ev = entry.ev;
        if (ev->cancelled) {
            recycle_cancelled(self, ev);
            Py_DECREF(ev);
            continue;
        }
        self->live--;
        Py_CLEAR(ev->queue);
        return (PyObject *)ev;
    }
    Py_RETURN_NONE;
}

static PyObject *
Queue_pop_batch(CEventQueue *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "pop_batch(batch, max_count=None)");
        return NULL;
    }
    PyObject *batch = args[0];
    long long max_count = TIME_SENTINEL;
    if (nargs == 2 && args[1] != Py_None) {
        max_count = PyLong_AsLongLong(args[1]);
        if (max_count == -1 && PyErr_Occurred())
            return NULL;
    }
    long long batch_time = 0;
    long batch_priority = 0;
    Py_ssize_t count = 0;
    while (self->heap_size) {
        HeapEntry *top = &self->heap[0];
        CEvent *ev = top->ev;
        if (ev->cancelled) {
            HeapEntry entry = heap_pop_root(self);
            recycle_cancelled(self, entry.ev);
            Py_DECREF(entry.ev);
            continue;
        }
        if (count == 0) {
            batch_time = top->time;
            batch_priority = top->priority;
        }
        else if (top->time != batch_time || top->priority != batch_priority)
            break;
        HeapEntry entry = heap_pop_root(self);
        Py_CLEAR(entry.ev->queue);
        int rc;
        if (PyList_Check(batch))
            rc = PyList_Append(batch, (PyObject *)entry.ev);
        else {
            PyObject *r = PyObject_CallMethod(batch, "append", "O", entry.ev);
            rc = r == NULL ? -1 : 0;
            Py_XDECREF(r);
        }
        Py_DECREF(entry.ev);
        if (rc < 0) {
            self->live -= count;
            return NULL;
        }
        count++;
        if (count >= max_count)
            break;
    }
    self->live -= count;
    return PyLong_FromSsize_t(count);
}

static PyObject *
Queue_unpop(CEventQueue *self, PyObject *events)
{
    PyObject *seq = PySequence_Fast(events, "unpop() expects a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!Py_IS_TYPE(items[i], &CEvent_Type)) {
            PyErr_SetString(PyExc_TypeError,
                            "unpop() requires compiled Events");
            Py_DECREF(seq);
            return NULL;
        }
        CEvent *ev = (CEvent *)items[i];
        if (ev->cancelled)
            continue;
        Py_INCREF(self);
        Py_XSETREF(ev->queue, (PyObject *)self);
        HeapEntry entry = {ev->time, ev->priority, ev->seq, ev};
        Py_INCREF(ev);
        if (heap_push_entry(self, entry) < 0) {
            Py_DECREF(seq);
            return NULL;
        }
        self->live++;
    }
    Py_DECREF(seq);
    Py_RETURN_NONE;
}

static PyObject *
Queue_recycle(CEventQueue *self, PyObject *event)
{
    if (!Py_IS_TYPE(event, &CEvent_Type)) {
        PyErr_SetString(PyExc_TypeError, "recycle() requires a compiled Event");
        return NULL;
    }
    CEvent *ev = (CEvent *)event;
    Py_CLEAR(ev->callback);
    Py_INCREF(empty_string);
    Py_XSETREF(ev->label, empty_string);
    Py_CLEAR(ev->queue);
    ev->cancelled = 1;
    freelist_put(self, ev);
    Py_RETURN_NONE;
}

static PyObject *
Queue_peek_time(CEventQueue *self, PyObject *Py_UNUSED(ignored))
{
    while (self->heap_size && self->heap[0].ev->cancelled) {
        HeapEntry entry = heap_pop_root(self);
        recycle_cancelled(self, entry.ev);
        Py_DECREF(entry.ev);
    }
    if (self->heap_size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].time);
}

static PyObject *
Queue_cancel(CEventQueue *self, PyObject *event)
{
    if (Py_IS_TYPE(event, &CEvent_Type)) {
        event_cancel_internal((CEvent *)event);
        Py_RETURN_NONE;
    }
    return PyObject_CallMethod(event, "cancel", NULL);
}

static PyObject *
Queue_compact_method(CEventQueue *self, PyObject *Py_UNUSED(ignored))
{
    queue_compact(self);
    Py_RETURN_NONE;
}

/* drain() iterator */

typedef struct {
    PyObject_HEAD
    CEventQueue *queue;
} CDrainIter;

static void
DrainIter_dealloc(CDrainIter *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->queue);
    PyObject_GC_Del(self);
}

static int
DrainIter_traverse(CDrainIter *self, visitproc visit, void *arg)
{
    Py_VISIT(self->queue);
    return 0;
}

static PyObject *
DrainIter_next(CDrainIter *self)
{
    CEventQueue *q = self->queue;
    if (q == NULL)
        return NULL;
    while (q->heap_size) {
        HeapEntry entry = heap_pop_root(q);
        CEvent *ev = entry.ev;
        if (ev->cancelled) {
            recycle_cancelled(q, ev);
            Py_DECREF(ev);
            continue;
        }
        q->live--;
        Py_CLEAR(ev->queue);
        return (PyObject *)ev;
    }
    return NULL;
}

static PyTypeObject CDrainIter_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._DrainIter",
    .tp_basicsize = sizeof(CDrainIter),
    .tp_dealloc = (destructor)DrainIter_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)DrainIter_traverse,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)DrainIter_next,
};

static PyObject *
Queue_drain(CEventQueue *self, PyObject *Py_UNUSED(ignored))
{
    CDrainIter *it = PyObject_GC_New(CDrainIter, &CDrainIter_Type);
    if (it == NULL)
        return NULL;
    Py_INCREF(self);
    it->queue = self;
    PyObject_GC_Track((PyObject *)it);
    return (PyObject *)it;
}

static Py_ssize_t
Queue_len(CEventQueue *self)
{
    return self->live;
}

static PyObject *
Queue_get_heap(CEventQueue *self, void *closure)
{
    PyObject *list = PyList_New(self->heap_size);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->heap_size; i++) {
        HeapEntry *e = &self->heap[i];
        PyObject *tuple = Py_BuildValue("LlLO", e->time, e->priority, e->seq,
                                        e->ev);
        if (tuple == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, tuple);
    }
    return list;
}

static PyObject *
Queue_get_free(CEventQueue *self, void *closure)
{
    PyObject *list = PyList_New(self->free_size);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->free_size; i++) {
        Py_INCREF(self->free_pool[i]);
        PyList_SET_ITEM(list, i, self->free_pool[i]);
    }
    return list;
}

static PyObject *
Queue_get_seq(CEventQueue *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
Queue_get_live(CEventQueue *self, void *closure)
{
    return PyLong_FromSsize_t(self->live);
}

static PyObject *
Queue_get_compactions(CEventQueue *self, void *closure)
{
    return PyLong_FromLongLong(self->compactions);
}

static int
Queue_set_compactions(CEventQueue *self, PyObject *value, void *closure)
{
    long long v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    self->compactions = v;
    return 0;
}

static PyGetSetDef Queue_getset[] = {
    {"_heap", (getter)Queue_get_heap, NULL,
     "Snapshot of the heap as (time, priority, seq, event) tuples.", NULL},
    {"_free", (getter)Queue_get_free, NULL,
     "Snapshot of the event freelist.", NULL},
    {"_seq", (getter)Queue_get_seq, NULL, NULL, NULL},
    {"_live", (getter)Queue_get_live, NULL, NULL, NULL},
    {"compactions", (getter)Queue_get_compactions,
     (setter)Queue_set_compactions, NULL, NULL},
    {NULL}
};

static PyMethodDef Queue_methods[] = {
    {"push", (PyCFunction)(void (*)(void))Queue_push,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule callback at absolute cycle `time` and return the event."},
    {"push_static", (PyCFunction)(void (*)(void))Queue_push_static,
     METH_FASTCALL,
     "Re-queue a caller-owned permanent event at absolute cycle `time`."},
    {"new_static_event", (PyCFunction)(void (*)(void))Queue_new_static_event,
     METH_FASTCALL | METH_KEYWORDS,
     "Create a caller-owned static event compatible with this queue."},
    {"pop", (PyCFunction)Queue_pop, METH_NOARGS,
     "Pop the next non-cancelled event, or None if the queue is empty."},
    {"pop_batch", (PyCFunction)(void (*)(void))Queue_pop_batch, METH_FASTCALL,
     "Pop every live event sharing the minimal (time, priority)."},
    {"unpop", (PyCFunction)Queue_unpop, METH_O,
     "Return popped-but-unexecuted events to the queue."},
    {"recycle", (PyCFunction)Queue_recycle, METH_O,
     "Return a fired event to the pool (kernel use only)."},
    {"peek_time", (PyCFunction)Queue_peek_time, METH_NOARGS,
     "Firing time of the next live event without popping it."},
    {"cancel", (PyCFunction)Queue_cancel, METH_O,
     "Cancel a previously scheduled event."},
    {"_compact", (PyCFunction)Queue_compact_method, METH_NOARGS,
     "Drop cancelled entries and rebuild the heap from live ones."},
    {"drain", (PyCFunction)Queue_drain, METH_NOARGS,
     "Yield and remove every remaining live event (teardown)."},
    {NULL}
};

static PySequenceMethods Queue_as_sequence = {
    .sq_length = (lenfunc)Queue_len,
};

static PyTypeObject CEventQueue_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.EventQueue",
    .tp_basicsize = sizeof(CEventQueue),
    .tp_dealloc = (destructor)Queue_dealloc,
    .tp_as_sequence = &Queue_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled counterpart of repro.sim.engine.EventQueue.",
    .tp_traverse = (traverseproc)Queue_traverse,
    .tp_clear = (inquiry)Queue_clear_gc,
    .tp_methods = Queue_methods,
    .tp_getset = Queue_getset,
    .tp_new = Queue_new,
};

/* -------------------------------------------------------- Simulator type */

typedef struct {
    PyObject_HEAD
    CEventQueue *queue;     /* strong */
    PyObject *quiesce_hooks;/* PyList */
    long long now;
    long long events_executed;
    char running;
    char stop_requested;
} CSimulator;

static PyObject *
Sim_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Simulator() takes no arguments");
        return NULL;
    }
    CSimulator *self = PyObject_GC_New(CSimulator, &CSimulator_Type);
    if (self == NULL)
        return NULL;
    self->queue = NULL;
    self->quiesce_hooks = NULL;
    self->now = 0;
    self->events_executed = 0;
    self->running = 0;
    self->stop_requested = 0;
    PyObject_GC_Track((PyObject *)self);
    self->queue = queue_alloc();
    self->quiesce_hooks = PyList_New(0);
    if (self->queue == NULL || self->quiesce_hooks == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static int
Sim_traverse(CSimulator *self, visitproc visit, void *arg)
{
    Py_VISIT(self->queue);
    Py_VISIT(self->quiesce_hooks);
    return 0;
}

static int
Sim_clear_gc(CSimulator *self)
{
    Py_CLEAR(self->queue);
    Py_CLEAR(self->quiesce_hooks);
    return 0;
}

static void
Sim_dealloc(CSimulator *self)
{
    PyObject_GC_UnTrack(self);
    Sim_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
Sim_schedule(CSimulator *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    long long delay;
    long priority;
    PyObject *callback, *label;
    /* Same slot layout as push(): (delay, callback, priority, label). */
    if (parse_push_args(args, nargs, kwnames, "schedule()", &delay,
                        &callback, &priority, &label) < 0)
        return NULL;
    if (delay < 0) {
        PyErr_Format(SimulationError, "negative delay %lld", delay);
        return NULL;
    }
    return queue_push_internal(self->queue, self->now + delay, priority,
                               callback, label);
}

static PyObject *
Sim_schedule_at(CSimulator *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    long long time;
    long priority;
    PyObject *callback, *label;
    if (parse_push_args(args, nargs, kwnames, "schedule_at()", &time,
                        &callback, &priority, &label) < 0)
        return NULL;
    if (time < self->now) {
        PyErr_Format(SimulationError,
                     "cannot schedule event in the past (now=%lld, time=%lld)",
                     self->now, time);
        return NULL;
    }
    return queue_push_internal(self->queue, time, priority, callback, label);
}

static PyObject *
Sim_cancel(CSimulator *self, PyObject *event)
{
    return Queue_cancel(self->queue, event);
}

static PyObject *
Sim_add_quiesce_hook(CSimulator *self, PyObject *hook)
{
    if (PyList_Append(self->quiesce_hooks, hook) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Sim_stop(CSimulator *self, PyObject *Py_UNUSED(ignored))
{
    self->stop_requested = 1;
    Py_RETURN_NONE;
}

/* The fused dispatch loop -- a line-for-line port of Simulator.run() in
 * repro.sim.engine (see that docstring for the semantics). */
static PyObject *
sim_run_internal(CSimulator *self, PyObject *until_obj, PyObject *maxev_obj)
{
    long long until_bound = TIME_SENTINEL;
    long long events_bound = TIME_SENTINEL;
    if (until_obj != NULL && until_obj != Py_None) {
        until_bound = PyLong_AsLongLong(until_obj);
        if (until_bound == -1 && PyErr_Occurred())
            return NULL;
    }
    if (maxev_obj != NULL && maxev_obj != Py_None) {
        events_bound = PyLong_AsLongLong(maxev_obj);
        if (events_bound == -1 && PyErr_Occurred())
            return NULL;
    }
    CEventQueue *q = self->queue;
    self->running = 1;
    self->stop_requested = 0;
    long long executed = 0;
    int failed = 0;
    for (;;) {
        if (self->stop_requested)
            break;
        if (executed >= events_bound)
            break;
        if (q->heap_size == 0) {
            PyObject *hooks = self->quiesce_hooks;
            Py_INCREF(hooks);
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(hooks); i++) {
                PyObject *hook = PyList_GET_ITEM(hooks, i);
                Py_INCREF(hook);
                PyObject *res = PyObject_CallNoArgs(hook);
                Py_DECREF(hook);
                if (res == NULL) {
                    Py_DECREF(hooks);
                    failed = 1;
                    goto done;
                }
                Py_DECREF(res);
            }
            Py_DECREF(hooks);
            /* peek_time(): skim cancelled heads, then check progress. */
            while (q->heap_size && q->heap[0].ev->cancelled) {
                HeapEntry entry = heap_pop_root(q);
                recycle_cancelled(q, entry.ev);
                Py_DECREF(entry.ev);
            }
            if (q->heap_size == 0)
                break;
            continue;
        }
        HeapEntry entry = heap_pop_root(q);
        CEvent *ev = entry.ev;
        if (ev->cancelled) {
            recycle_cancelled(q, ev);
            Py_DECREF(ev);
            continue;
        }
        if (entry.time > until_bound) {
            /* Out of the window: put the event back (same key, ordering
             * untouched) and stop at the bound. */
            if (heap_push_entry(q, entry) < 0) {
                failed = 1;
                goto done;
            }
            self->now = until_bound;
            break;
        }
        q->live--;
        Py_CLEAR(ev->queue);
        self->now = entry.time;
        PyObject *callback = ev->callback ? ev->callback : Py_None;
        Py_INCREF(callback);
        PyObject *res = PyObject_CallNoArgs(callback);
        Py_DECREF(callback);
        if (res == NULL) {
            Py_DECREF(ev);
            failed = 1;
            goto done;
        }
        Py_DECREF(res);
        executed++;
        if (!ev->is_static) {
            Py_CLEAR(ev->callback);
            Py_INCREF(empty_string);
            Py_XSETREF(ev->label, empty_string);
            ev->cancelled = 1;
            freelist_put(q, ev);
        }
        Py_DECREF(ev);
    }
done:
    self->running = 0;
    self->events_executed += executed;
    if (failed)
        return NULL;
    return PyLong_FromLongLong(self->now);
}

static PyObject *
Sim_run(CSimulator *self, PyObject *const *args, Py_ssize_t nargs,
        PyObject *kwnames)
{
    PyObject *until = NULL, *max_events = NULL;
    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "run(until=None, max_events=None)");
        return NULL;
    }
    if (nargs >= 1)
        until = args[0];
    if (nargs >= 2)
        max_events = args[1];
    if (kwnames) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (PyUnicode_CompareWithASCIIString(name, "until") == 0)
                until = args[nargs + i];
            else if (PyUnicode_CompareWithASCIIString(name,
                                                      "max_events") == 0)
                max_events = args[nargs + i];
            else {
                PyErr_Format(PyExc_TypeError,
                             "run() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    return sim_run_internal(self, until, max_events);
}

static PyObject *
Sim_run_until_idle(CSimulator *self, PyObject *const *args, Py_ssize_t nargs,
                   PyObject *kwnames)
{
    PyObject *max_events = NULL;
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "run_until_idle(max_events=None)");
        return NULL;
    }
    if (nargs == 1)
        max_events = args[0];
    if (kwnames) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (PyUnicode_CompareWithASCIIString(name, "max_events") == 0)
                max_events = args[nargs + i];
            else {
                PyErr_Format(PyExc_TypeError,
                             "run_until_idle() got an unexpected keyword "
                             "argument %R", name);
                return NULL;
            }
        }
    }
    PyObject *saved = self->quiesce_hooks;
    PyObject *empty = PyList_New(0);
    if (empty == NULL)
        return NULL;
    self->quiesce_hooks = empty;
    PyObject *result = sim_run_internal(self, NULL, max_events);
    self->quiesce_hooks = saved;
    Py_DECREF(empty);
    return result;
}

static PyObject *
Sim_get_now(CSimulator *self, void *closure)
{
    return PyLong_FromLongLong(self->now);
}

static int
Sim_set_now(CSimulator *self, PyObject *value, void *closure)
{
    long long v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    self->now = v;
    return 0;
}

static PyObject *
Sim_get_events_executed(CSimulator *self, void *closure)
{
    return PyLong_FromLongLong(self->events_executed);
}

static int
Sim_set_events_executed(CSimulator *self, PyObject *value, void *closure)
{
    long long v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    self->events_executed = v;
    return 0;
}

static PyObject *
Sim_get_queue(CSimulator *self, void *closure)
{
    Py_INCREF(self->queue);
    return (PyObject *)self->queue;
}

static PyObject *
Sim_get_running(CSimulator *self, void *closure)
{
    return PyBool_FromLong(self->running);
}

static PyObject *
Sim_get_stop_requested(CSimulator *self, void *closure)
{
    return PyBool_FromLong(self->stop_requested);
}

static int
Sim_set_stop_requested(CSimulator *self, PyObject *value, void *closure)
{
    int v = PyObject_IsTrue(value);
    if (v < 0)
        return -1;
    self->stop_requested = (char)v;
    return 0;
}

static PyObject *
Sim_get_quiesce_hooks(CSimulator *self, void *closure)
{
    Py_INCREF(self->quiesce_hooks);
    return self->quiesce_hooks;
}

static int
Sim_set_quiesce_hooks(CSimulator *self, PyObject *value, void *closure)
{
    if (value == NULL || !PyList_Check(value)) {
        PyErr_SetString(PyExc_TypeError, "_quiesce_hooks must be a list");
        return -1;
    }
    Py_INCREF(value);
    Py_XSETREF(self->quiesce_hooks, value);
    return 0;
}

static PyGetSetDef Sim_getset[] = {
    {"now", (getter)Sim_get_now, NULL,
     "Current simulation time in cycles.", NULL},
    {"_now", (getter)Sim_get_now, (setter)Sim_set_now, NULL, NULL},
    {"events_executed", (getter)Sim_get_events_executed,
     (setter)Sim_set_events_executed, NULL, NULL},
    {"queue", (getter)Sim_get_queue, NULL, NULL, NULL},
    {"_running", (getter)Sim_get_running, NULL, NULL, NULL},
    {"_stop_requested", (getter)Sim_get_stop_requested,
     (setter)Sim_set_stop_requested, NULL, NULL},
    {"_quiesce_hooks", (getter)Sim_get_quiesce_hooks,
     (setter)Sim_set_quiesce_hooks, NULL, NULL},
    {NULL}
};

static PyMethodDef Sim_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Sim_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule callback `delay` cycles from now."},
    {"schedule_at", (PyCFunction)(void (*)(void))Sim_schedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule callback at an absolute cycle (must not be in the past)."},
    {"cancel", (PyCFunction)Sim_cancel, METH_O,
     "Cancel a scheduled event."},
    {"add_quiesce_hook", (PyCFunction)Sim_add_quiesce_hook, METH_O,
     "Register a callable invoked whenever the event queue drains."},
    {"stop", (PyCFunction)Sim_stop, METH_NOARGS,
     "Request that run() return after the current event."},
    {"run", (PyCFunction)(void (*)(void))Sim_run,
     METH_FASTCALL | METH_KEYWORDS,
     "Run events until the queue drains, `until` cycles, or `max_events`."},
    {"run_until_idle", (PyCFunction)(void (*)(void))Sim_run_until_idle,
     METH_FASTCALL | METH_KEYWORDS,
     "Run until the event queue is empty (ignoring quiesce hooks)."},
    {NULL}
};

static PyTypeObject CSimulator_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Simulator",
    .tp_basicsize = sizeof(CSimulator),
    .tp_dealloc = (destructor)Sim_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled counterpart of repro.sim.engine.Simulator.",
    .tp_traverse = (traverseproc)Sim_traverse,
    .tp_clear = (inquiry)Sim_clear_gc,
    .tp_methods = Sim_methods,
    .tp_getset = Sim_getset,
    .tp_new = Sim_new,
};

/* ----------------------------------------------------------- switch core */

/* Per-switch compiled hot path: inject / receive_from_link / scan / credit
 * wake, a line-for-line port of repro.interconnect.switch.Switch's hot
 * methods.  The core shares all Python-visible state (FiniteBuffer fields,
 * link occupancy, stats counters, the switch's message counters) by reading
 * and writing the same attributes at the same points, so reports and the
 * wait-for-graph detector see exactly what the pure tier produces.  Only
 * kernel-private state (the occupancy mask, the scan-scheduled flag) moves
 * into the C struct -- the pure methods are unbound once a core is
 * installed, so nothing else reads them.
 *
 * Cores are installed network-wide or not at all (see
 * InterconnectNetwork._install_compiled_cores): every switch must have
 * <= 64 scan slots (the mask is a uint64) and the simulator must be the
 * compiled one.  Construction is two-phase: SwitchCore(switch) captures
 * switch-local state, bind() resolves cross-switch references once every
 * core exists. */

/* Interned attribute names used on the hot paths. */
static struct {
    PyObject *reserved, *total_enqueued, *peak_occupancy, *name,
        *busy_until, *busy_cycles, *messages_carried, *bytes_carried,
        *hops, *dst, *src, *vnet, *size_bytes, *value, *flush_epoch,
        *messages_forwarded, *messages_ejected, *blocked_events,
        *c_injected, *c_ejected, *c_forwarded, *queue_attr, *popleft,
        *append, *core_attr, *capacity_attr, *latency_cycles_attr,
        *delivered_at, *injected_at, *messages_delivered,
        *total_message_latency, *delivered, *receive, *ordering,
        *note_delivery, *deliver_label, *squashed_net, *delivered_name,
        *reordered_name, *send_seq_name, *max_delivered_seq;
} S;

static PyObject *Direction_LOCAL = NULL;     /* lazily imported */
static PyObject *delay_kwnames = NULL;       /* ("delay",) */

typedef struct CSwitchCoreT CSwitchCore;

typedef struct {
    PyObject *port;             /* Direction member */
    PyObject *deque;
    PyObject *popleft;          /* bound method */
    int credit_local;           /* local port: wake the NIC, not a switch */
    CSwitchCore *credit_up;     /* upstream core, strong, NULL when local */
} ScanSlot;

typedef struct {
    PyObject *buf;              /* FiniteBuffer */
    PyObject *deque;
    PyObject *append;           /* bound deque.append */
    long capacity;
    uint64_t bit;
} GridSlot;

typedef struct {
    PyObject *dir;              /* Direction member (identity key) */
    PyObject *link;
    PyObject *ser_cache;        /* link._ser_cache dict */
    PyObject *ser_method;       /* bound link.serialization_cycles */
    long long latency_cycles;
    CSwitchCore *down;          /* strong */
    int shared;
    long vns, vcc;
    GridSlot *dslots;           /* downstream slots, [vn][vc] row-major */
    long ndslots;               /* actual allocated count (1 when shared) */
    PyObject *fwd_label;
} OutPort;

struct CSwitchCoreT {
    PyObject_HEAD
    PyObject *py_switch;
    CSimulator *sim;
    CEventQueue *cqueue;
    PyObject *network;
    PyObject *stats_counter;    /* bound stats.counter */
    PyObject *count_meth;       /* bound switch.count */
    CEvent *scan_event;
    Py_ssize_t nslots;
    ScanSlot *slots;
    uint64_t active_mask;
    int scan_scheduled;
    int bound;
    int local_shared;
    long local_vns, local_vcc;
    long local_nslots;          /* actual allocated count (1 when shared) */
    GridSlot *local_slots;      /* [vn][vc] row-major */
    PyObject *route_row;        /* list, or NULL for adaptive */
    PyObject *route_fn;         /* bound routing.route */
    PyObject *congestion_fn;    /* bound switch._congestion_for */
    PyObject *switch_id_obj;
    long long ejection_latency;
    PyObject *ejection_delay_obj;
    PyObject *can_eject, *deliver, *notify_space;
    PyObject *credit_wake_dict; /* switch._credit_wake */
    PyObject *endpoints;        /* network._endpoints dict */
    PyObject *delivered_counters, *reordered_counters;  /* cache lists */
    PyObject *vnet_counter_meth;/* bound network._vnet_counter */
    PyObject *ordering_records; /* ordering._records dict */
    PyObject *record_meth;      /* bound ordering._record */
    PyObject *pvnet_delivered;  /* ordering.per_vnet_delivered dict */
    PyObject *pvnet_reordered;  /* ordering.per_vnet_reordered dict */
    PyObject *local_pending;    /* local endpoint's pending_injection deque */
    int local_pending_resolved;
    int always_eject;           /* can_eject is identically True (has VCs) */
    Py_ssize_t nout;
    OutPort *outs;
    PyObject *c_injected, *c_ejected, *c_forwarded;  /* Counter cache */
    PyObject *name_injected, *name_ejected, *name_forwarded;
    PyObject *lbl_injection_blocked, *lbl_ejection_blocked,
        *lbl_blocked_on_buffer, *lbl_squashed;
};

static PyTypeObject CSwitchCore_Type;
static PyTypeObject CForwardThunk_Type;

/* ---- small attribute helpers (interned-name get/set of C integers) ---- */

static int
getattr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
setattr_ll(PyObject *obj, PyObject *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static int
addattr_ll(PyObject *obj, PyObject *name, long long delta)
{
    long long v;
    if (getattr_ll(obj, name, &v) < 0)
        return -1;
    return setattr_ll(obj, name, v + delta);
}

/* counter.value += n (Counter stores a plain int attribute) */
static int
counter_add(PyObject *counter, long long n)
{
    return addattr_ll(counter, S.value, n);
}

/* Lazy hot counter: mirror of `counter = self._c_x or stats.counter(name)`,
 * kept in sync with the pure tier by also storing the Counter back onto the
 * Python switch attribute. */
static PyObject *
core_lazy_counter(CSwitchCore *self, PyObject **cache, PyObject *switch_attr,
                  PyObject *counter_name)
{
    if (*cache != NULL)
        return *cache;
    PyObject *counter = PyObject_CallOneArg(self->stats_counter, counter_name);
    if (counter == NULL)
        return NULL;
    if (PyObject_SetAttr(self->py_switch, switch_attr, counter) < 0) {
        Py_DECREF(counter);
        return NULL;
    }
    *cache = counter;                       /* keep the reference */
    return counter;
}

static int
core_count(CSwitchCore *self, PyObject *label)
{
    PyObject *res = PyObject_CallOneArg(self->count_meth, label);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Schedule this core's scan via push_static at absolute cycle `time`. */
static int
core_push_scan(CSwitchCore *self, long long time)
{
    CEventQueue *q = self->cqueue;
    CEvent *ev = self->scan_event;
    long long seq = q->seq++;
    ev->time = time;
    ev->seq = seq;
    ev->cancelled = 0;
    Py_INCREF(q);
    Py_XSETREF(ev->queue, (PyObject *)q);
    HeapEntry entry = {time, ev->priority, seq, ev};
    Py_INCREF(ev);
    if (heap_push_entry(q, entry) < 0)
        return -1;
    q->live++;
    return 0;
}

/* The shared "message landed in a buffer slot" tail used by inject /
 * receive / the forward thunk: set the mask bit and make sure a scan is
 * pending *now*. */
static inline int
core_wake_scan_now(CSwitchCore *self)
{
    if (!self->scan_scheduled) {
        self->scan_scheduled = 1;
        return core_push_scan(self, self->sim->now);
    }
    return 0;
}

/* ---------------------------------------------------------- ForwardThunk */

/* Replaces the per-forward Python lambda: carries the resolved downstream
 * slot, the message and the captured flush epoch; calling it performs the
 * downstream receive_from_link inline. */
typedef struct {
    PyObject_HEAD
    CSwitchCore *down;          /* strong */
    PyObject *message;          /* strong */
    PyObject *buf;              /* strong */
    PyObject *deque;            /* strong */
    PyObject *append;           /* strong */
    uint64_t bit;
    long long epoch;
} CForwardThunk;

static int
Thunk_traverse(CForwardThunk *self, visitproc visit, void *arg)
{
    Py_VISIT(self->down);
    Py_VISIT(self->message);
    Py_VISIT(self->buf);
    Py_VISIT(self->deque);
    Py_VISIT(self->append);
    return 0;
}

static int
Thunk_clear_gc(CForwardThunk *self)
{
    Py_CLEAR(self->down);
    Py_CLEAR(self->message);
    Py_CLEAR(self->buf);
    Py_CLEAR(self->deque);
    Py_CLEAR(self->append);
    return 0;
}

static void
Thunk_dealloc(CForwardThunk *self)
{
    PyObject_GC_UnTrack(self);
    Thunk_clear_gc(self);
    PyObject_GC_Del(self);
}

/* Inline of FiniteBuffer.push_reserved + the arrival bookkeeping of
 * Switch.receive_from_link (the epoch was already captured at send). */
static int
core_receive_into_slot(CSwitchCore *down, PyObject *message, PyObject *buf,
                       PyObject *deque, PyObject *append, uint64_t bit,
                       int count_hop)
{
    long long reserved;
    if (getattr_ll(buf, S.reserved, &reserved) < 0)
        return -1;
    if (reserved <= 0) {
        PyObject *name = PyObject_GetAttr(buf, S.name);
        PyErr_Format(PyExc_RuntimeError, "buffer %S: push without reservation",
                     name ? name : Py_None);
        Py_XDECREF(name);
        return -1;
    }
    if (setattr_ll(buf, S.reserved, reserved - 1) < 0)
        return -1;
    PyObject *res = PyObject_CallOneArg(append, message);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    if (addattr_ll(buf, S.total_enqueued, 1) < 0)
        return -1;
    Py_ssize_t qlen = PyObject_Size(deque);
    if (qlen < 0)
        return -1;
    long long occupancy = (long long)qlen + reserved - 1;
    long long peak;
    if (getattr_ll(buf, S.peak_occupancy, &peak) < 0)
        return -1;
    if (occupancy > peak && setattr_ll(buf, S.peak_occupancy, occupancy) < 0)
        return -1;
    down->active_mask |= bit;
    if (count_hop && addattr_ll(message, S.hops, 1) < 0)
        return -1;
    return core_wake_scan_now(down);
}

static PyObject *
Thunk_call(CForwardThunk *self, PyObject *args, PyObject *kwds)
{
    CSwitchCore *down = self->down;
    long long cur_epoch;
    if (getattr_ll(down->network, S.flush_epoch, &cur_epoch) < 0)
        return NULL;
    if (cur_epoch != self->epoch) {
        if (core_count(down, down->lbl_squashed) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (core_receive_into_slot(down, self->message, self->buf, self->deque,
                               self->append, self->bit, 1) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject CForwardThunk_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._ForwardThunk",
    .tp_basicsize = sizeof(CForwardThunk),
    .tp_dealloc = (destructor)Thunk_dealloc,
    .tp_call = (ternaryfunc)Thunk_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Thunk_traverse,
    .tp_clear = (inquiry)Thunk_clear_gc,
};

/* ---------------------------------------------------------- DeliverThunk */

/* Replaces the per-delivery `_deliver` closure of
 * InterconnectNetwork.deliver_to_endpoint for ejections performed by a
 * compiled switch core: same epoch check, same delivery accounting, same
 * lazy per-virtual-network counters, then the endpoint receive callback. */
typedef struct {
    PyObject_HEAD
    CSwitchCore *core;          /* strong; owns network/sim/counter caches */
    PyObject *endpoint;
    PyObject *message;
    long long epoch;
} CDeliverThunk;

static PyTypeObject CDeliverThunk_Type;

static int
DThunk_traverse(CDeliverThunk *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    Py_VISIT(self->endpoint);
    Py_VISIT(self->message);
    return 0;
}

static int
DThunk_clear_gc(CDeliverThunk *self)
{
    Py_CLEAR(self->core);
    Py_CLEAR(self->endpoint);
    Py_CLEAR(self->message);
    return 0;
}

static void
DThunk_dealloc(CDeliverThunk *self)
{
    PyObject_GC_UnTrack(self);
    DThunk_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
DThunk_call(CDeliverThunk *self, PyObject *args, PyObject *kwds)
{
    CSwitchCore *core = self->core;
    PyObject *network = core->network;
    PyObject *message = self->message;
    long long cur_epoch;
    if (getattr_ll(network, S.flush_epoch, &cur_epoch) < 0)
        return NULL;
    if (cur_epoch != self->epoch) {
        PyObject *counter = PyObject_CallOneArg(core->stats_counter,
                                                S.squashed_net);
        if (counter == NULL)
            return NULL;
        PyObject *res = PyObject_CallMethod(counter, "add", NULL);
        Py_DECREF(counter);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
        Py_RETURN_NONE;
    }
    long long now = core->sim->now;
    if (setattr_ll(message, S.delivered_at, now) < 0 ||
        addattr_ll(network, S.messages_delivered, 1) < 0 ||
        addattr_ll(self->endpoint, S.delivered, 1) < 0)
        return NULL;
    long long injected;
    if (getattr_ll(message, S.injected_at, &injected) < 0 ||
        addattr_ll(network, S.total_message_latency, now - injected) < 0)
        return NULL;
    /* Inline of ordering.note_delivery(message): one dict probe plus
     * plain attribute bookkeeping instead of a bound-method allocation
     * and a Python frame per delivered message. */
    PyObject *vn_obj = PyObject_GetAttr(message, S.vnet);
    if (vn_obj == NULL)
        return NULL;
    int reordered;
    {
        PyObject *src = PyObject_GetAttr(message, S.src);
        if (src == NULL)
            goto fail_vn;
        PyObject *dst = PyObject_GetAttr(message, S.dst);
        if (dst == NULL) {
            Py_DECREF(src);
            goto fail_vn;
        }
        PyObject *key = PyTuple_Pack(3, src, dst, vn_obj);
        Py_DECREF(src);
        Py_DECREF(dst);
        if (key == NULL)
            goto fail_vn;
        PyObject *record = PyDict_GetItemWithError(core->ordering_records,
                                                   key);
        int rec_new = 0;
        if (record == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(key);
                goto fail_vn;
            }
            record = PyObject_CallOneArg(core->record_meth, key);
            if (record == NULL) {
                Py_DECREF(key);
                goto fail_vn;
            }
            rec_new = 1;
        }
        Py_DECREF(key);
        long long send_seq, max_seq;
        if (addattr_ll(record, S.delivered_name, 1) < 0 ||
            getattr_ll(message, S.send_seq_name, &send_seq) < 0 ||
            getattr_ll(record, S.max_delivered_seq, &max_seq) < 0) {
            if (rec_new)
                Py_DECREF(record);
            goto fail_vn;
        }
        reordered = send_seq < max_seq;
        if (reordered) {
            if (addattr_ll(record, S.reordered_name, 1) < 0) {
                if (rec_new)
                    Py_DECREF(record);
                goto fail_vn;
            }
        }
        else if (setattr_ll(record, S.max_delivered_seq, send_seq) < 0) {
            if (rec_new)
                Py_DECREF(record);
            goto fail_vn;
        }
        if (rec_new)
            Py_DECREF(record);
        /* per_vnet_delivered[vnet] += 1 (key always pre-seeded) */
        PyObject *cur = PyDict_GetItemWithError(core->pvnet_delivered,
                                                vn_obj);
        if (cur == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, vn_obj);
            goto fail_vn;
        }
        long long dv = PyLong_AsLongLong(cur);
        if (dv == -1 && PyErr_Occurred())
            goto fail_vn;
        PyObject *nv = PyLong_FromLongLong(dv + 1);
        if (nv == NULL)
            goto fail_vn;
        int ok = PyDict_SetItem(core->pvnet_delivered, vn_obj, nv);
        Py_DECREF(nv);
        if (ok < 0)
            goto fail_vn;
        if (reordered) {
            cur = PyDict_GetItemWithError(core->pvnet_reordered, vn_obj);
            if (cur == NULL) {
                if (!PyErr_Occurred())
                    PyErr_SetObject(PyExc_KeyError, vn_obj);
                goto fail_vn;
            }
            dv = PyLong_AsLongLong(cur);
            if (dv == -1 && PyErr_Occurred())
                goto fail_vn;
            nv = PyLong_FromLongLong(dv + 1);
            if (nv == NULL)
                goto fail_vn;
            ok = PyDict_SetItem(core->pvnet_reordered, vn_obj, nv);
            Py_DECREF(nv);
            if (ok < 0)
                goto fail_vn;
        }
        goto ordering_done;
    fail_vn:
        Py_DECREF(vn_obj);
        return NULL;
    }
ordering_done:;
    Py_ssize_t vn = PyLong_AsSsize_t(vn_obj);
    if (vn == -1 && PyErr_Occurred()) {
        Py_DECREF(vn_obj);
        return NULL;
    }
    PyObject *counter = PyList_GetItem(core->delivered_counters, vn);
    if (counter == NULL) {
        Py_DECREF(vn_obj);
        return NULL;
    }
    if (counter == Py_None) {
        counter = PyObject_CallFunctionObjArgs(
            core->vnet_counter_meth, core->delivered_counters,
            S.delivered_name, vn_obj, NULL);
        if (counter == NULL) {
            Py_DECREF(vn_obj);
            return NULL;
        }
        Py_DECREF(counter);     /* the cache list keeps it alive */
        counter = PyList_GetItem(core->delivered_counters, vn);
        if (counter == NULL) {
            Py_DECREF(vn_obj);
            return NULL;
        }
    }
    if (counter_add(counter, 1) < 0) {
        Py_DECREF(vn_obj);
        return NULL;
    }
    if (reordered) {
        PyObject *rc = PyObject_CallFunctionObjArgs(
            core->vnet_counter_meth, core->reordered_counters,
            S.reordered_name, vn_obj, NULL);
        if (rc == NULL) {
            Py_DECREF(vn_obj);
            return NULL;
        }
        int ok = counter_add(rc, 1);
        Py_DECREF(rc);
        if (ok < 0) {
            Py_DECREF(vn_obj);
            return NULL;
        }
    }
    Py_DECREF(vn_obj);
    PyObject *receive = PyObject_GetAttr(self->endpoint, S.receive);
    if (receive == NULL)
        return NULL;
    PyObject *res = PyObject_CallOneArg(receive, message);
    Py_DECREF(receive);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyTypeObject CDeliverThunk_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._DeliverThunk",
    .tp_basicsize = sizeof(CDeliverThunk),
    .tp_dealloc = (destructor)DThunk_dealloc,
    .tp_call = (ternaryfunc)DThunk_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)DThunk_traverse,
    .tp_clear = (inquiry)DThunk_clear_gc,
};

/* C fast path of deliver_to_endpoint(switch_id, message, delay=EJECTION):
 * same unattached-node check at schedule time, then a C thunk instead of a
 * Python closure.  `message` reference is borrowed. */
static int
core_deliver_local(CSwitchCore *self, PyObject *message)
{
    PyObject *endpoint = PyDict_GetItemWithError(self->endpoints,
                                                 self->switch_id_obj);
    if (endpoint == NULL && PyErr_Occurred())
        return -1;
    PyObject *receive = NULL;
    if (endpoint != NULL) {
        receive = PyObject_GetAttr(endpoint, S.receive);
        if (receive == NULL)
            return -1;
    }
    if (endpoint == NULL || receive == Py_None) {
        Py_XDECREF(receive);
        PyErr_Format(PyExc_RuntimeError,
                     "message delivered to unattached node %S: %R",
                     self->switch_id_obj, message);
        return -1;
    }
    Py_DECREF(receive);
    long long epoch;
    if (getattr_ll(self->network, S.flush_epoch, &epoch) < 0)
        return -1;
    CDeliverThunk *thunk = PyObject_GC_New(CDeliverThunk,
                                           &CDeliverThunk_Type);
    if (thunk == NULL)
        return -1;
    Py_INCREF(self);
    thunk->core = self;
    Py_INCREF(endpoint);
    thunk->endpoint = endpoint;
    Py_INCREF(message);
    thunk->message = message;
    thunk->epoch = epoch;
    PyObject_GC_Track((PyObject *)thunk);
    PyObject *ev = queue_push_internal(
        self->cqueue, self->sim->now + self->ejection_latency, 0,
        (PyObject *)thunk, S.deliver_label);
    Py_DECREF(thunk);
    if (ev == NULL)
        return -1;
    Py_DECREF(ev);
    return 0;
}

/* ------------------------------------------------------ SwitchCore: init */

static int
Core_traverse(CSwitchCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->py_switch);
    Py_VISIT(self->sim);
    Py_VISIT(self->cqueue);
    Py_VISIT(self->network);
    Py_VISIT(self->stats_counter);
    Py_VISIT(self->count_meth);
    Py_VISIT(self->scan_event);
    if (self->slots) {
        for (Py_ssize_t i = 0; i < self->nslots; i++) {
            Py_VISIT(self->slots[i].port);
            Py_VISIT(self->slots[i].deque);
            Py_VISIT(self->slots[i].popleft);
            Py_VISIT(self->slots[i].credit_up);
        }
    }
    if (self->local_slots) {
        for (long i = 0; i < self->local_nslots; i++) {
            Py_VISIT(self->local_slots[i].buf);
            Py_VISIT(self->local_slots[i].deque);
            Py_VISIT(self->local_slots[i].append);
        }
    }
    Py_VISIT(self->route_row);
    Py_VISIT(self->route_fn);
    Py_VISIT(self->congestion_fn);
    Py_VISIT(self->switch_id_obj);
    Py_VISIT(self->ejection_delay_obj);
    Py_VISIT(self->can_eject);
    Py_VISIT(self->deliver);
    Py_VISIT(self->notify_space);
    Py_VISIT(self->credit_wake_dict);
    Py_VISIT(self->endpoints);
    Py_VISIT(self->delivered_counters);
    Py_VISIT(self->reordered_counters);
    Py_VISIT(self->vnet_counter_meth);
    Py_VISIT(self->ordering_records);
    Py_VISIT(self->record_meth);
    Py_VISIT(self->pvnet_delivered);
    Py_VISIT(self->pvnet_reordered);
    Py_VISIT(self->local_pending);
    for (Py_ssize_t i = 0; i < self->nout; i++) {
        OutPort *out = &self->outs[i];
        Py_VISIT(out->dir);
        Py_VISIT(out->link);
        Py_VISIT(out->ser_cache);
        Py_VISIT(out->ser_method);
        Py_VISIT(out->down);
        Py_VISIT(out->fwd_label);
        if (out->dslots) {
            for (long j = 0; j < out->ndslots; j++) {
                Py_VISIT(out->dslots[j].buf);
                Py_VISIT(out->dslots[j].deque);
                Py_VISIT(out->dslots[j].append);
            }
        }
    }
    Py_VISIT(self->c_injected);
    Py_VISIT(self->c_ejected);
    Py_VISIT(self->c_forwarded);
    Py_VISIT(self->name_injected);
    Py_VISIT(self->name_ejected);
    Py_VISIT(self->name_forwarded);
    return 0;
}

static int
Core_clear_gc(CSwitchCore *self)
{
    Py_CLEAR(self->py_switch);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->cqueue);
    Py_CLEAR(self->network);
    Py_CLEAR(self->stats_counter);
    Py_CLEAR(self->count_meth);
    Py_CLEAR(self->scan_event);
    if (self->slots) {
        for (Py_ssize_t i = 0; i < self->nslots; i++) {
            Py_CLEAR(self->slots[i].port);
            Py_CLEAR(self->slots[i].deque);
            Py_CLEAR(self->slots[i].popleft);
            Py_CLEAR(self->slots[i].credit_up);
        }
    }
    if (self->local_slots) {
        for (long i = 0; i < self->local_nslots; i++) {
            Py_CLEAR(self->local_slots[i].buf);
            Py_CLEAR(self->local_slots[i].deque);
            Py_CLEAR(self->local_slots[i].append);
        }
    }
    Py_CLEAR(self->route_row);
    Py_CLEAR(self->route_fn);
    Py_CLEAR(self->congestion_fn);
    Py_CLEAR(self->switch_id_obj);
    Py_CLEAR(self->ejection_delay_obj);
    Py_CLEAR(self->can_eject);
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->notify_space);
    Py_CLEAR(self->credit_wake_dict);
    Py_CLEAR(self->endpoints);
    Py_CLEAR(self->delivered_counters);
    Py_CLEAR(self->reordered_counters);
    Py_CLEAR(self->vnet_counter_meth);
    Py_CLEAR(self->ordering_records);
    Py_CLEAR(self->record_meth);
    Py_CLEAR(self->pvnet_delivered);
    Py_CLEAR(self->pvnet_reordered);
    Py_CLEAR(self->local_pending);
    for (Py_ssize_t i = 0; i < self->nout; i++) {
        OutPort *out = &self->outs[i];
        Py_CLEAR(out->dir);
        Py_CLEAR(out->link);
        Py_CLEAR(out->ser_cache);
        Py_CLEAR(out->ser_method);
        Py_CLEAR(out->down);
        Py_CLEAR(out->fwd_label);
        if (out->dslots) {
            for (long j = 0; j < out->ndslots; j++) {
                Py_CLEAR(out->dslots[j].buf);
                Py_CLEAR(out->dslots[j].deque);
                Py_CLEAR(out->dslots[j].append);
            }
        }
    }
    Py_CLEAR(self->c_injected);
    Py_CLEAR(self->c_ejected);
    Py_CLEAR(self->c_forwarded);
    Py_CLEAR(self->name_injected);
    Py_CLEAR(self->name_ejected);
    Py_CLEAR(self->name_forwarded);
    return 0;
}

static void
Core_dealloc(CSwitchCore *self)
{
    PyObject_GC_UnTrack(self);
    Core_clear_gc(self);
    PyMem_Free(self->slots);
    PyMem_Free(self->local_slots);
    for (Py_ssize_t i = 0; i < self->nout; i++)
        PyMem_Free(self->outs[i].dslots);
    PyMem_Free(self->outs);
    PyObject_GC_Del(self);
}

/* Fill a GridSlot from a FiniteBuffer (+ its mask bit). */
static int
grid_slot_init(GridSlot *slot, PyObject *buf, uint64_t bit)
{
    PyObject *deque = PyObject_GetAttr(buf, S.queue_attr);
    if (deque == NULL)
        return -1;
    PyObject *append = PyObject_GetAttr(deque, S.append);
    if (append == NULL) {
        Py_DECREF(deque);
        return -1;
    }
    long long capacity;
    if (getattr_ll(buf, S.capacity_attr, &capacity) < 0) {
        Py_DECREF(deque);
        Py_DECREF(append);
        return -1;
    }
    Py_INCREF(buf);
    slot->buf = buf;
    slot->deque = deque;
    slot->append = append;
    slot->capacity = (long)capacity;
    slot->bit = bit;
    return 0;
}

static PyObject *
Core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *sw;
    if (!PyArg_ParseTuple(args, "O", &sw))
        return NULL;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "SwitchCore() takes no kwargs");
        return NULL;
    }
    if (Direction_LOCAL == NULL) {
        PyObject *topo = PyImport_ImportModule("repro.interconnect.topology");
        if (topo == NULL)
            return NULL;
        PyObject *dir_enum = PyObject_GetAttrString(topo, "Direction");
        Py_DECREF(topo);
        if (dir_enum == NULL)
            return NULL;
        Direction_LOCAL = PyObject_GetAttrString(dir_enum, "LOCAL");
        Py_DECREF(dir_enum);
        if (Direction_LOCAL == NULL)
            return NULL;
    }

    CSwitchCore *self = PyObject_GC_New(CSwitchCore, &CSwitchCore_Type);
    if (self == NULL)
        return NULL;
    memset(((char *)self) + sizeof(PyObject), 0,
           sizeof(CSwitchCore) - sizeof(PyObject));
    PyObject_GC_Track((PyObject *)self);

    Py_INCREF(sw);
    self->py_switch = sw;

    PyObject *sim = PyObject_GetAttrString(sw, "sim");
    if (sim == NULL)
        goto fail;
    if (!Py_IS_TYPE(sim, &CSimulator_Type)) {
        Py_DECREF(sim);
        PyErr_SetString(PyExc_TypeError,
                        "SwitchCore requires a compiled Simulator");
        goto fail;
    }
    self->sim = (CSimulator *)sim;
    Py_INCREF(self->sim->queue);
    self->cqueue = self->sim->queue;

    self->network = PyObject_GetAttrString(sw, "network");
    if (self->network == NULL)
        goto fail;
    PyObject *stats = PyObject_GetAttrString(sw, "stats");
    if (stats == NULL)
        goto fail;
    self->stats_counter = PyObject_GetAttrString(stats, "counter");
    Py_DECREF(stats);
    if (self->stats_counter == NULL)
        goto fail;
    self->count_meth = PyObject_GetAttrString(sw, "count");
    if (self->count_meth == NULL)
        goto fail;

    /* scan slots: switch._scan_slots is [(port, deque, bit), ...] */
    PyObject *slots = PyObject_GetAttrString(sw, "_scan_slots");
    if (slots == NULL || !PyList_Check(slots)) {
        Py_XDECREF(slots);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_scan_slots must be a list");
        goto fail;
    }
    self->nslots = PyList_GET_SIZE(slots);
    if (self->nslots > 64) {
        Py_DECREF(slots);
        PyErr_SetString(PyExc_ValueError,
                        "SwitchCore supports at most 64 scan slots");
        goto fail;
    }
    self->slots = PyMem_Calloc((size_t)(self->nslots ? self->nslots : 1),
                               sizeof(ScanSlot));
    if (self->slots == NULL) {
        Py_DECREF(slots);
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < self->nslots; i++) {
        PyObject *entry = PyList_GET_ITEM(slots, i);
        PyObject *port = PyTuple_GET_ITEM(entry, 0);
        PyObject *deque = PyTuple_GET_ITEM(entry, 1);
        Py_INCREF(port);
        self->slots[i].port = port;
        Py_INCREF(deque);
        self->slots[i].deque = deque;
        self->slots[i].popleft = PyObject_GetAttr(deque, S.popleft);
        if (self->slots[i].popleft == NULL) {
            Py_DECREF(slots);
            goto fail;
        }
    }
    Py_DECREF(slots);

    /* local injection geometry */
    PyObject *tmp = PyObject_GetAttrString(sw, "_local_shared");
    if (tmp == NULL)
        goto fail;
    self->local_shared = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (self->local_shared < 0)
        goto fail;
    long long lv;
    tmp = PyObject_GetAttrString(sw, "_local_vns");
    if (tmp == NULL)
        goto fail;
    lv = PyLong_AsLongLong(tmp);
    Py_DECREF(tmp);
    if (lv == -1 && PyErr_Occurred())
        goto fail;
    self->local_vns = (long)lv;
    tmp = PyObject_GetAttrString(sw, "_local_vcc");
    if (tmp == NULL)
        goto fail;
    lv = PyLong_AsLongLong(tmp);
    Py_DECREF(tmp);
    if (lv == -1 && PyErr_Occurred())
        goto fail;
    self->local_vcc = (long)lv;

    /* The grid's *actual* shape: 1x1 in the shared (no-VC) design even
     * though virtual_networks keeps the configured count -- channel
     * selection short-circuits to (0, 0) there, so slot indexing with the
     * vn/vc strides only ever touches the slots that exist. */
    PyObject *local_grid = PyObject_GetAttrString(sw, "_local_slot_grid");
    if (local_grid == NULL)
        goto fail;
    Py_ssize_t lrows = PyList_GET_SIZE(local_grid);
    Py_ssize_t lcols = lrows ? PyList_GET_SIZE(PyList_GET_ITEM(local_grid, 0))
                             : 0;
    self->local_nslots = (long)(lrows * lcols);
    self->local_slots = PyMem_Calloc(
        (size_t)(self->local_nslots ? self->local_nslots : 1),
        sizeof(GridSlot));
    if (self->local_slots == NULL) {
        Py_DECREF(local_grid);
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t vn = 0; vn < lrows; vn++) {
        PyObject *row = PyList_GET_ITEM(local_grid, vn);
        for (Py_ssize_t vc = 0; vc < lcols; vc++) {
            /* row entries are (buf, deque, bit) */
            PyObject *entry = PyList_GET_ITEM(row, vc);
            PyObject *buf = PyTuple_GET_ITEM(entry, 0);
            PyObject *bit_obj = PyTuple_GET_ITEM(entry, 2);
            unsigned long long bit = PyLong_AsUnsignedLongLong(bit_obj);
            if (bit == (unsigned long long)-1 && PyErr_Occurred()) {
                Py_DECREF(local_grid);
                goto fail;
            }
            GridSlot *slot = &self->local_slots[vn * lcols + vc];
            if (grid_slot_init(slot, buf, (uint64_t)bit) < 0) {
                Py_DECREF(local_grid);
                goto fail;
            }
        }
    }
    Py_DECREF(local_grid);

    /* routing */
    tmp = PyObject_GetAttrString(sw, "_route_row");
    if (tmp == NULL)
        goto fail;
    if (tmp == Py_None)
        Py_DECREF(tmp);
    else
        self->route_row = tmp;
    self->route_fn = PyObject_GetAttrString(sw, "_route");
    if (self->route_fn == NULL)
        goto fail;
    self->congestion_fn = PyObject_GetAttrString(sw, "_congestion_for");
    if (self->congestion_fn == NULL)
        goto fail;
    self->switch_id_obj = PyObject_GetAttrString(sw, "switch_id");
    if (self->switch_id_obj == NULL)
        goto fail;
    long long ej;
    tmp = PyObject_GetAttrString(sw, "EJECTION_LATENCY");
    if (tmp == NULL)
        goto fail;
    ej = PyLong_AsLongLong(tmp);
    Py_DECREF(tmp);
    if (ej == -1 && PyErr_Occurred())
        goto fail;
    self->ejection_latency = ej;
    self->ejection_delay_obj = PyLong_FromLongLong(ej);
    if (self->ejection_delay_obj == NULL)
        goto fail;
    self->can_eject = PyObject_GetAttrString(sw, "_can_eject");
    if (self->can_eject == NULL)
        goto fail;
    self->deliver = PyObject_GetAttrString(sw, "_deliver");
    if (self->deliver == NULL)
        goto fail;
    self->notify_space = PyObject_GetAttrString(self->network,
                                                "notify_injection_space");
    if (self->notify_space == NULL)
        goto fail;
    self->credit_wake_dict = PyObject_GetAttrString(sw, "_credit_wake");
    if (self->credit_wake_dict == NULL)
        goto fail;

    /* delivery fast path */
    self->endpoints = PyObject_GetAttrString(self->network, "_endpoints");
    if (self->endpoints == NULL)
        goto fail;
    if (!PyDict_Check(self->endpoints)) {
        PyErr_SetString(PyExc_TypeError, "_endpoints must be a dict");
        goto fail;
    }
    self->delivered_counters = PyObject_GetAttrString(self->network,
                                                      "_delivered_counters");
    if (self->delivered_counters == NULL)
        goto fail;
    if (!PyList_Check(self->delivered_counters)) {
        PyErr_SetString(PyExc_TypeError, "_delivered_counters must be a list");
        goto fail;
    }
    self->reordered_counters = PyObject_GetAttrString(self->network,
                                                      "_reordered_counters");
    if (self->reordered_counters == NULL)
        goto fail;
    self->vnet_counter_meth = PyObject_GetAttrString(self->network,
                                                     "_vnet_counter");
    if (self->vnet_counter_meth == NULL)
        goto fail;
    /* ordering-tracker caches for the inlined note_delivery hit path.
     * The _records dict and the two per-vnet dicts are never reassigned
     * (OrderingTracker.reset mutates them in place), so the objects are
     * safe to hold for the core's lifetime. */
    tmp = PyObject_GetAttrString(self->network, "ordering");
    if (tmp == NULL)
        goto fail;
    self->ordering_records = PyObject_GetAttrString(tmp, "_records");
    if (self->ordering_records == NULL ||
        !PyDict_Check(self->ordering_records)) {
        Py_DECREF(tmp);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "ordering._records must be a dict");
        goto fail;
    }
    self->record_meth = PyObject_GetAttrString(tmp, "_record");
    if (self->record_meth == NULL) {
        Py_DECREF(tmp);
        goto fail;
    }
    self->pvnet_delivered = PyObject_GetAttrString(tmp,
                                                   "per_vnet_delivered");
    if (self->pvnet_delivered == NULL || !PyDict_Check(self->pvnet_delivered)) {
        Py_DECREF(tmp);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "per_vnet_delivered must be a dict");
        goto fail;
    }
    self->pvnet_reordered = PyObject_GetAttrString(tmp,
                                                   "per_vnet_reordered");
    Py_DECREF(tmp);
    if (self->pvnet_reordered == NULL || !PyDict_Check(self->pvnet_reordered)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "per_vnet_reordered must be a dict");
        goto fail;
    }
    tmp = PyObject_GetAttrString(self->network, "config");
    if (tmp == NULL)
        goto fail;
    PyObject *no_vc = PyObject_GetAttrString(tmp, "speculative_no_vc");
    Py_DECREF(tmp);
    if (no_vc == NULL)
        goto fail;
    int no_vc_truth = PyObject_IsTrue(no_vc);
    Py_DECREF(no_vc);
    if (no_vc_truth < 0)
        goto fail;
    self->always_eject = !no_vc_truth;

    /* counter names + hot labels */
    PyObject *name = PyObject_GetAttr(sw, S.name);
    if (name == NULL)
        goto fail;
    self->name_injected = PyUnicode_FromFormat("%S.injected", name);
    self->name_ejected = PyUnicode_FromFormat("%S.ejected", name);
    self->name_forwarded = PyUnicode_FromFormat("%S.forwarded", name);
    Py_DECREF(name);
    if (self->name_injected == NULL || self->name_ejected == NULL ||
        self->name_forwarded == NULL)
        goto fail;
    self->lbl_injection_blocked = PyUnicode_InternFromString(
        "injection_blocked");
    self->lbl_ejection_blocked = PyUnicode_InternFromString(
        "ejection_blocked");
    self->lbl_blocked_on_buffer = PyUnicode_InternFromString(
        "blocked_on_buffer");
    self->lbl_squashed = PyUnicode_InternFromString("squashed_in_flight");
    if (self->lbl_injection_blocked == NULL ||
        self->lbl_ejection_blocked == NULL ||
        self->lbl_blocked_on_buffer == NULL || self->lbl_squashed == NULL)
        goto fail;

    /* the static scan event, owned by this core, firing core.scan */
    PyObject *scan_cb = PyObject_GetAttrString((PyObject *)self, "scan");
    if (scan_cb == NULL)
        goto fail;
    PyObject *label = PyObject_GetAttrString(sw, "_scan_label");
    if (label == NULL) {
        Py_DECREF(scan_cb);
        goto fail;
    }
    self->scan_event = event_alloc(0, 0, 0, scan_cb, label);
    Py_DECREF(scan_cb);
    Py_DECREF(label);
    if (self->scan_event == NULL)
        goto fail;
    self->scan_event->is_static = 1;
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* bind(): second construction phase, run once every switch has a core. */
static PyObject *
Core_bind(CSwitchCore *self, PyObject *Py_UNUSED(ignored))
{
    if (self->bound)
        Py_RETURN_NONE;
    PyObject *sw = self->py_switch;
    PyObject *out_dict = PyObject_GetAttrString(sw, "_out");
    if (out_dict == NULL)
        return NULL;
    /* count wired directions */
    Py_ssize_t nout = 0, pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(out_dict, &pos, &key, &value))
        if (value != Py_None)
            nout++;
    self->outs = PyMem_Calloc((size_t)(nout ? nout : 1), sizeof(OutPort));
    if (self->outs == NULL) {
        Py_DECREF(out_dict);
        PyErr_NoMemory();
        return NULL;
    }
    pos = 0;
    while (PyDict_Next(out_dict, &pos, &key, &value)) {
        if (value == Py_None)
            continue;
        OutPort *out = &self->outs[self->nout];
        /* (link, downstream, downstream_port, shared, vns, vcc, grid,
         *  cids, fwd_label) */
        PyObject *link = PyTuple_GET_ITEM(value, 0);
        PyObject *downstream = PyTuple_GET_ITEM(value, 1);
        PyObject *down_port = PyTuple_GET_ITEM(value, 2);
        int shared = PyObject_IsTrue(PyTuple_GET_ITEM(value, 3));
        long vns = PyLong_AsLong(PyTuple_GET_ITEM(value, 4));
        long vcc = PyLong_AsLong(PyTuple_GET_ITEM(value, 5));
        PyObject *grid = PyTuple_GET_ITEM(value, 6);
        PyObject *fwd_label = PyTuple_GET_ITEM(value, 8);
        if (shared < 0 || ((vns == -1 || vcc == -1) && PyErr_Occurred()))
            goto fail;
        Py_INCREF(key);
        out->dir = key;
        Py_INCREF(link);
        out->link = link;
        out->ser_cache = PyObject_GetAttrString(link, "_ser_cache");
        if (out->ser_cache == NULL)
            goto fail;
        out->ser_method = PyObject_GetAttrString(link,
                                                 "serialization_cycles");
        if (out->ser_method == NULL)
            goto fail;
        long long lat;
        if (getattr_ll(link, S.latency_cycles_attr, &lat) < 0)
            goto fail;
        out->latency_cycles = lat;
        PyObject *down_core = PyObject_GetAttr(downstream, S.core_attr);
        if (down_core == NULL)
            goto fail;
        if (!Py_IS_TYPE(down_core, &CSwitchCore_Type)) {
            Py_DECREF(down_core);
            PyErr_SetString(PyExc_TypeError,
                            "downstream switch has no compiled core");
            goto fail;
        }
        out->down = (CSwitchCore *)down_core;
        out->shared = shared;
        out->vns = vns;
        out->vcc = vcc;
        Py_INCREF(fwd_label);
        out->fwd_label = fwd_label;
        /* Allocate by the grid's *actual* shape (1x1 in the shared no-VC
         * design even though vns keeps the configured count; selection
         * short-circuits to (0, 0) there). */
        Py_ssize_t g_rows = PyList_GET_SIZE(grid);
        Py_ssize_t g_cols = g_rows ? PyList_GET_SIZE(PyList_GET_ITEM(grid, 0))
                                   : 0;
        out->ndslots = (long)(g_rows * g_cols);
        out->dslots = PyMem_Calloc(
            (size_t)(out->ndslots ? out->ndslots : 1), sizeof(GridSlot));
        if (out->dslots == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        /* downstream mask bits come from its _slot_grid[port][vn][vc] */
        PyObject *down_grid = PyObject_GetAttrString(downstream,
                                                     "_slot_grid");
        if (down_grid == NULL)
            goto fail;
        PyObject *port_grid = PyObject_GetItem(down_grid, down_port);
        Py_DECREF(down_grid);
        if (port_grid == NULL)
            goto fail;
        for (Py_ssize_t vn = 0; vn < g_rows; vn++) {
            PyObject *buf_row = PyList_GET_ITEM(grid, vn);
            PyObject *slot_row = PyList_GET_ITEM(port_grid, vn);
            for (Py_ssize_t vc = 0; vc < g_cols; vc++) {
                PyObject *buf = PyList_GET_ITEM(buf_row, vc);
                PyObject *slot_entry = PyList_GET_ITEM(slot_row, vc);
                unsigned long long bit = PyLong_AsUnsignedLongLong(
                    PyTuple_GET_ITEM(slot_entry, 2));
                if (bit == (unsigned long long)-1 && PyErr_Occurred()) {
                    Py_DECREF(port_grid);
                    goto fail;
                }
                if (grid_slot_init(&out->dslots[vn * g_cols + vc], buf,
                                   (uint64_t)bit) < 0) {
                    Py_DECREF(port_grid);
                    goto fail;
                }
            }
        }
        Py_DECREF(port_grid);
        self->nout++;
    }
    Py_DECREF(out_dict);

    /* per-slot credit wake targets from _credit_wake[port] */
    for (Py_ssize_t i = 0; i < self->nslots; i++) {
        ScanSlot *slot = &self->slots[i];
        PyObject *upstream = PyObject_GetItem(self->credit_wake_dict,
                                              slot->port);
        if (upstream == NULL)
            return NULL;
        if (upstream == Py_None) {
            slot->credit_local = 1;
            Py_DECREF(upstream);
        }
        else {
            PyObject *up_core = PyObject_GetAttr(upstream, S.core_attr);
            Py_DECREF(upstream);
            if (up_core == NULL)
                return NULL;
            if (!Py_IS_TYPE(up_core, &CSwitchCore_Type)) {
                Py_DECREF(up_core);
                PyErr_SetString(PyExc_TypeError,
                                "upstream switch has no compiled core");
                return NULL;
            }
            slot->credit_up = (CSwitchCore *)up_core;
        }
    }
    self->bound = 1;
    Py_RETURN_NONE;

fail:
    Py_DECREF(out_dict);
    return NULL;
}

/* --------------------------------------------------- SwitchCore: hot path */

/* Channel selection shared by inject (local geometry) and forward
 * (downstream geometry): vn = msg.vnet (mod vns), vc = (src*31+dst) % vcc. */
static int
select_channel(PyObject *message, int shared, long vns, long vcc,
               long *vn_out, long *vc_out)
{
    if (shared) {
        *vn_out = 0;
        *vc_out = 0;
        return 0;
    }
    long long vnet, src, dst;
    if (getattr_ll(message, S.vnet, &vnet) < 0 ||
        getattr_ll(message, S.src, &src) < 0 ||
        getattr_ll(message, S.dst, &dst) < 0)
        return -1;
    long vn = (long)vnet;
    if (vn >= vns)
        vn = vn % vns;
    *vn_out = vn;
    *vc_out = (long)((src * 31 + dst) % vcc);
    return 0;
}

static PyObject *
Core_inject(CSwitchCore *self, PyObject *message)
{
    long vn, vc;
    if (select_channel(message, self->local_shared, self->local_vns,
                       self->local_vcc, &vn, &vc) < 0)
        return NULL;
    GridSlot *slot = &self->local_slots[vn * self->local_vcc + vc];
    long long reserved;
    if (getattr_ll(slot->buf, S.reserved, &reserved) < 0)
        return NULL;
    Py_ssize_t qlen = PyObject_Size(slot->deque);
    if (qlen < 0)
        return NULL;
    if ((long long)qlen + reserved >= slot->capacity) {
        if (core_count(self, self->lbl_injection_blocked) < 0)
            return NULL;
        Py_RETURN_FALSE;
    }
    PyObject *res = PyObject_CallOneArg(slot->append, message);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    if (addattr_ll(slot->buf, S.total_enqueued, 1) < 0)
        return NULL;
    long long occupancy = (long long)qlen + 1 + reserved;
    long long peak;
    if (getattr_ll(slot->buf, S.peak_occupancy, &peak) < 0)
        return NULL;
    if (occupancy > peak &&
        setattr_ll(slot->buf, S.peak_occupancy, occupancy) < 0)
        return NULL;
    self->active_mask |= slot->bit;
    PyObject *counter = core_lazy_counter(self, &self->c_injected,
                                          S.c_injected, self->name_injected);
    if (counter == NULL || counter_add(counter, 1) < 0)
        return NULL;
    if (core_wake_scan_now(self) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
Core_receive_from_link(CSwitchCore *self, PyObject *const *args,
                       Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *message, *input_port, *channel, *epoch = Py_None;
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    if (total < 3 || total > 4 || nargs < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "receive_from_link(message, input_port, channel, "
                        "epoch=None)");
        return NULL;
    }
    message = args[0];
    input_port = args[1];
    channel = args[2];
    if (nargs == 4)
        epoch = args[3];
    else if (kwnames && PyTuple_GET_SIZE(kwnames) == 1)
        epoch = args[3];
    if (epoch != Py_None) {
        long long e = PyLong_AsLongLong(epoch);
        if (e == -1 && PyErr_Occurred())
            return NULL;
        long long cur;
        if (getattr_ll(self->network, S.flush_epoch, &cur) < 0)
            return NULL;
        if (e != cur) {
            if (core_count(self, self->lbl_squashed) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
    }
    /* generic slot lookup (thunks bypass this method entirely; it exists
     * for API parity and external callers/tests) */
    PyObject *grid = PyObject_GetAttrString(self->py_switch, "_slot_grid");
    if (grid == NULL)
        return NULL;
    PyObject *port_grid = PyObject_GetItem(grid, input_port);
    Py_DECREF(grid);
    if (port_grid == NULL)
        return NULL;
    PyObject *vn_obj = PyObject_GetAttrString(channel, "virtual_network");
    PyObject *vc_obj = PyObject_GetAttrString(channel, "virtual_channel");
    if (vn_obj == NULL || vc_obj == NULL) {
        Py_XDECREF(vn_obj);
        Py_XDECREF(vc_obj);
        Py_DECREF(port_grid);
        return NULL;
    }
    long vn = PyLong_AsLong(vn_obj);
    long vc = PyLong_AsLong(vc_obj);
    Py_DECREF(vn_obj);
    Py_DECREF(vc_obj);
    if ((vn == -1 || vc == -1) && PyErr_Occurred()) {
        Py_DECREF(port_grid);
        return NULL;
    }
    PyObject *row = PyList_GET_ITEM(port_grid, vn);
    PyObject *entry = PyList_GET_ITEM(row, vc);
    PyObject *buf = PyTuple_GET_ITEM(entry, 0);
    PyObject *deque = PyTuple_GET_ITEM(entry, 1);
    unsigned long long bit = PyLong_AsUnsignedLongLong(
        PyTuple_GET_ITEM(entry, 2));
    if (bit == (unsigned long long)-1 && PyErr_Occurred()) {
        Py_DECREF(port_grid);
        return NULL;
    }
    PyObject *append = PyObject_GetAttr(deque, S.append);
    if (append == NULL) {
        Py_DECREF(port_grid);
        return NULL;
    }
    int rc = core_receive_into_slot(self, message, buf, deque, append,
                                    (uint64_t)bit, 1);
    Py_DECREF(append);
    Py_DECREF(port_grid);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_schedule_scan(CSwitchCore *self, PyObject *const *args,
                   Py_ssize_t nargs, PyObject *kwnames)
{
    long long delay = 0;
    if (nargs == 1) {
        delay = PyLong_AsLongLong(args[0]);
        if (delay == -1 && PyErr_Occurred())
            return NULL;
    }
    else if (kwnames && PyTuple_GET_SIZE(kwnames) == 1) {
        delay = PyLong_AsLongLong(args[nargs]);
        if (delay == -1 && PyErr_Occurred())
            return NULL;
    }
    else if (nargs != 0 || (kwnames && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "schedule_scan(delay=0)");
        return NULL;
    }
    if (self->scan_scheduled)
        Py_RETURN_NONE;
    self->scan_scheduled = 1;
    if (core_push_scan(self, self->sim->now + delay) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* One forwarding pass -- the port of Switch._scan. */
static PyObject *
Core_scan(CSwitchCore *self, PyObject *Py_UNUSED(ignored))
{
    self->scan_scheduled = 0;
    if (!self->active_mask)
        Py_RETURN_NONE;
    int progressed = 0;
    int have_retry = 0;
    long long retry_at = 0;
    long long now = self->sim->now;
    int pos = 0;
    for (;;) {
        uint64_t rest = self->active_mask >> pos;
        if (!rest)
            break;
        int index = pos + __builtin_ctzll(rest);
        pos = index + 1;
        ScanSlot *slot = &self->slots[index];
        uint64_t bit = (uint64_t)1 << index;
        Py_ssize_t qlen = PyObject_Size(slot->deque);
        if (qlen < 0)
            return NULL;
        if (qlen == 0) {
            self->active_mask &= ~bit;   /* heal a stale bit */
            continue;
        }
        PyObject *message = PySequence_GetItem(slot->deque, 0);
        if (message == NULL)
            return NULL;
        /* route */
        PyObject *direction;
        if (self->route_row != NULL) {
            long long dst;
            if (getattr_ll(message, S.dst, &dst) < 0) {
                Py_DECREF(message);
                return NULL;
            }
            direction = PyList_GET_ITEM(self->route_row, dst);  /* borrowed */
            Py_INCREF(direction);
        }
        else {
            direction = PyObject_CallFunctionObjArgs(
                self->route_fn, self->switch_id_obj, message,
                self->congestion_fn, NULL);
            if (direction == NULL) {
                Py_DECREF(message);
                return NULL;
            }
        }
        if (direction == Direction_LOCAL) {
            Py_DECREF(direction);
            /* can_eject is identically True unless the no-VC design is
             * active; skip the Python call in the common case. */
            if (!self->always_eject) {
                PyObject *ok = PyObject_CallOneArg(self->can_eject,
                                                   self->switch_id_obj);
                if (ok == NULL) {
                    Py_DECREF(message);
                    return NULL;
                }
                int can = PyObject_IsTrue(ok);
                Py_DECREF(ok);
                if (can < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                if (!can) {
                    if (core_count(self, self->lbl_ejection_blocked) < 0) {
                        Py_DECREF(message);
                        return NULL;
                    }
                    long long wake = now + 16;
                    if (!have_retry || wake < retry_at) {
                        have_retry = 1;
                        retry_at = wake;
                    }
                    Py_DECREF(message);
                    continue;
                }
            }
            PyObject *res = PyObject_CallNoArgs(slot->popleft);
            if (res == NULL) {
                Py_DECREF(message);
                return NULL;
            }
            Py_DECREF(res);
            if (qlen == 1)
                self->active_mask &= ~bit;
            if (addattr_ll(self->py_switch, S.messages_ejected, 1) < 0) {
                Py_DECREF(message);
                return NULL;
            }
            PyObject *counter = core_lazy_counter(self, &self->c_ejected,
                                                  S.c_ejected,
                                                  self->name_ejected);
            if (counter == NULL || counter_add(counter, 1) < 0) {
                Py_DECREF(message);
                return NULL;
            }
            if (core_deliver_local(self, message) < 0) {
                Py_DECREF(message);
                return NULL;
            }
            Py_DECREF(message);
        }
        else {
            /* find the out-port for this direction (identity match; <= 4
             * wired directions, linear scan beats a dict) */
            OutPort *out = NULL;
            for (Py_ssize_t i = 0; i < self->nout; i++) {
                if (self->outs[i].dir == direction) {
                    out = &self->outs[i];
                    break;
                }
            }
            Py_DECREF(direction);
            if (out == NULL) {
                /* degenerate 1-wide geometry: local loopback */
                PyObject *res = PyObject_CallNoArgs(slot->popleft);
                if (res == NULL) {
                    Py_DECREF(message);
                    return NULL;
                }
                Py_DECREF(res);
                if (qlen == 1)
                    self->active_mask &= ~bit;
                if (core_deliver_local(self, message) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                Py_DECREF(message);
            }
            else {
                long d_vn, d_vc;
                if (select_channel(message, out->shared, out->vns, out->vcc,
                                   &d_vn, &d_vc) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                GridSlot *dslot = &out->dslots[d_vn * out->vcc + d_vc];
                long long d_reserved;
                if (getattr_ll(dslot->buf, S.reserved, &d_reserved) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                Py_ssize_t d_qlen = PyObject_Size(dslot->deque);
                if (d_qlen < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                if ((long long)d_qlen + d_reserved >= dslot->capacity) {
                    if (addattr_ll(self->py_switch, S.blocked_events, 1) < 0
                        || core_count(self,
                                      self->lbl_blocked_on_buffer) < 0) {
                        Py_DECREF(message);
                        return NULL;
                    }
                    Py_DECREF(message);
                    continue;
                }
                long long busy_until;
                if (getattr_ll(out->link, S.busy_until, &busy_until) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                if (now < busy_until) {
                    if (!have_retry || busy_until < retry_at) {
                        have_retry = 1;
                        retry_at = busy_until;
                    }
                    Py_DECREF(message);
                    continue;
                }
                if (setattr_ll(dslot->buf, S.reserved, d_reserved + 1) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                PyObject *res = PyObject_CallNoArgs(slot->popleft);
                if (res == NULL) {
                    Py_DECREF(message);
                    return NULL;
                }
                Py_DECREF(res);
                if (qlen == 1)
                    self->active_mask &= ~bit;
                /* inline of link.occupy() */
                PyObject *size_obj = PyObject_GetAttr(message, S.size_bytes);
                if (size_obj == NULL) {
                    Py_DECREF(message);
                    return NULL;
                }
                long long ser;
                PyObject *ser_obj = PyDict_GetItemWithError(out->ser_cache,
                                                            size_obj);
                if (ser_obj != NULL)
                    ser = PyLong_AsLongLong(ser_obj);
                else {
                    if (PyErr_Occurred()) {
                        Py_DECREF(size_obj);
                        Py_DECREF(message);
                        return NULL;
                    }
                    PyObject *computed = PyObject_CallOneArg(out->ser_method,
                                                             size_obj);
                    if (computed == NULL) {
                        Py_DECREF(size_obj);
                        Py_DECREF(message);
                        return NULL;
                    }
                    ser = PyLong_AsLongLong(computed);
                    Py_DECREF(computed);
                }
                if (ser == -1 && PyErr_Occurred()) {
                    Py_DECREF(size_obj);
                    Py_DECREF(message);
                    return NULL;
                }
                long long size = PyLong_AsLongLong(size_obj);
                Py_DECREF(size_obj);
                if (size == -1 && PyErr_Occurred()) {
                    Py_DECREF(message);
                    return NULL;
                }
                long long new_busy = now + ser;
                if (setattr_ll(out->link, S.busy_until, new_busy) < 0 ||
                    addattr_ll(out->link, S.busy_cycles, ser) < 0 ||
                    addattr_ll(out->link, S.messages_carried, 1) < 0 ||
                    addattr_ll(out->link, S.bytes_carried, size) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                long long arrival = new_busy + out->latency_cycles;
                if (addattr_ll(self->py_switch, S.messages_forwarded,
                               1) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                PyObject *counter = core_lazy_counter(self,
                                                      &self->c_forwarded,
                                                      S.c_forwarded,
                                                      self->name_forwarded);
                if (counter == NULL || counter_add(counter, 1) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                /* flush epoch captured at send time, like the lambda's
                 * default argument in the pure tier */
                long long epoch;
                if (getattr_ll(self->network, S.flush_epoch, &epoch) < 0) {
                    Py_DECREF(message);
                    return NULL;
                }
                CForwardThunk *thunk = PyObject_GC_New(CForwardThunk,
                                                       &CForwardThunk_Type);
                if (thunk == NULL) {
                    Py_DECREF(message);
                    return NULL;
                }
                Py_INCREF(out->down);
                thunk->down = out->down;
                thunk->message = message;        /* steal our reference */
                Py_INCREF(dslot->buf);
                thunk->buf = dslot->buf;
                Py_INCREF(dslot->deque);
                thunk->deque = dslot->deque;
                Py_INCREF(dslot->append);
                thunk->append = dslot->append;
                thunk->bit = dslot->bit;
                thunk->epoch = epoch;
                PyObject_GC_Track((PyObject *)thunk);
                message = NULL;
                PyObject *ev = queue_push_internal(self->cqueue, arrival, 0,
                                                   (PyObject *)thunk,
                                                   out->fwd_label);
                Py_DECREF(thunk);
                if (ev == NULL)
                    return NULL;
                Py_DECREF(ev);
            }
        }
        /* a head moved: release the credit for its input port */
        progressed = 1;
        if (slot->credit_local) {
            /* Inline of network.notify_injection_space(switch_id) for the
             * common case: the NIC's pending_injection deque is empty, so
             * the whole call reduces to schedule_scan(delay=1) on this
             * switch.  The deque object is stable once the endpoint is
             * attached, so it is resolved lazily and cached. */
            if (!self->local_pending_resolved) {
                PyObject *ep = PyDict_GetItemWithError(
                    self->endpoints, self->switch_id_obj);
                if (ep == NULL && PyErr_Occurred())
                    return NULL;
                if (ep != NULL) {
                    self->local_pending = PyObject_GetAttrString(
                        ep, "pending_injection");
                    if (self->local_pending == NULL)
                        return NULL;
                    self->local_pending_resolved = 1;
                }
            }
            Py_ssize_t npend = -1;
            if (self->local_pending_resolved) {
                npend = PyObject_Size(self->local_pending);
                if (npend < 0)
                    return NULL;
            }
            if (npend == 0) {
                if (!self->scan_scheduled) {
                    self->scan_scheduled = 1;
                    if (core_push_scan(self, now + 1) < 0)
                        return NULL;
                }
            }
            else {
                /* queued messages (or no endpoint yet): full drain path */
                PyObject *res = PyObject_CallOneArg(self->notify_space,
                                                    self->switch_id_obj);
                if (res == NULL)
                    return NULL;
                Py_DECREF(res);
            }
        }
        else if (slot->credit_up != NULL &&
                 !slot->credit_up->scan_scheduled) {
            slot->credit_up->scan_scheduled = 1;
            if (core_push_scan(slot->credit_up, now + 1) < 0)
                return NULL;
        }
    }
    if (progressed) {
        if (!self->scan_scheduled) {
            self->scan_scheduled = 1;
            if (core_push_scan(self, now + 1) < 0)
                return NULL;
        }
    }
    else if (have_retry && retry_at > now) {
        if (!self->scan_scheduled) {
            self->scan_scheduled = 1;
            if (core_push_scan(self, now + (retry_at - now)) < 0)
                return NULL;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Core_clear_mask(CSwitchCore *self, PyObject *Py_UNUSED(ignored))
{
    self->active_mask = 0;
    Py_RETURN_NONE;
}

static PyObject *
Core_get_active_mask(CSwitchCore *self, void *closure)
{
    return PyLong_FromUnsignedLongLong(self->active_mask);
}

static PyObject *
Core_get_scan_scheduled(CSwitchCore *self, void *closure)
{
    return PyBool_FromLong(self->scan_scheduled);
}

static PyObject *
Core_get_scan_event(CSwitchCore *self, void *closure)
{
    Py_INCREF(self->scan_event);
    return (PyObject *)self->scan_event;
}

static PyGetSetDef Core_getset[] = {
    {"active_mask", (getter)Core_get_active_mask, NULL, NULL, NULL},
    {"scan_scheduled", (getter)Core_get_scan_scheduled, NULL, NULL, NULL},
    {"scan_event", (getter)Core_get_scan_event, NULL, NULL, NULL},
    {NULL}
};

static PyMethodDef Core_methods[] = {
    {"bind", (PyCFunction)Core_bind, METH_NOARGS,
     "Resolve cross-switch references (run once all cores exist)."},
    {"inject", (PyCFunction)Core_inject, METH_O,
     "Inject a message from the local endpoint; False when full."},
    {"receive_from_link",
     (PyCFunction)(void (*)(void))Core_receive_from_link,
     METH_FASTCALL | METH_KEYWORDS,
     "A message arrives from an upstream switch into a reserved slot."},
    {"schedule_scan", (PyCFunction)(void (*)(void))Core_schedule_scan,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule a forwarding scan if one is not already pending."},
    {"scan", (PyCFunction)Core_scan, METH_NOARGS,
     "One forwarding pass: try to move every occupied head-of-line."},
    {"clear_mask", (PyCFunction)Core_clear_mask, METH_NOARGS,
     "Reset the occupancy mask (switch drain during system recovery)."},
    {NULL}
};

static PyTypeObject CSwitchCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.SwitchCore",
    .tp_basicsize = sizeof(CSwitchCore),
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled hot path of one interconnect switch.",
    .tp_traverse = (traverseproc)Core_traverse,
    .tp_clear = (inquiry)Core_clear_gc,
    .tp_methods = Core_methods,
    .tp_getset = Core_getset,
    .tp_new = Core_new,
};

/* --------------------------------------------------------- undo-log path */

/* C twin of repro.safetynet.log.UndoRecord: same attribute surface, same
 * equality semantics (field-wise, same-type only), allocated directly by
 * the compiled observer below.  Recovery and occupancy accounting only read
 * the six attributes, so pure and compiled records are interchangeable. */
typedef struct {
    PyObject_HEAD
    long long checkpoint_seq;
    PyObject *target_id;
    PyObject *address;
    PyObject *field;
    PyObject *old_value;
    long long logged_at;
} CUndoRecord;

static PyTypeObject CUndoRecord_Type;

static int
Undo_traverse(CUndoRecord *self, visitproc visit, void *arg)
{
    Py_VISIT(self->target_id);
    Py_VISIT(self->address);
    Py_VISIT(self->field);
    Py_VISIT(self->old_value);
    return 0;
}

static int
Undo_clear_gc(CUndoRecord *self)
{
    Py_CLEAR(self->target_id);
    Py_CLEAR(self->address);
    Py_CLEAR(self->field);
    Py_CLEAR(self->old_value);
    return 0;
}

static void
Undo_dealloc(CUndoRecord *self)
{
    PyObject_GC_UnTrack(self);
    Undo_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
Undo_richcompare(PyObject *a, PyObject *b, int op)
{
    if ((op != Py_EQ && op != Py_NE) ||
        !Py_IS_TYPE(a, &CUndoRecord_Type) ||
        !Py_IS_TYPE(b, &CUndoRecord_Type))
        Py_RETURN_NOTIMPLEMENTED;
    CUndoRecord *x = (CUndoRecord *)a, *y = (CUndoRecord *)b;
    int eq = x->checkpoint_seq == y->checkpoint_seq &&
        x->logged_at == y->logged_at;
    if (eq) {
        int cmp = PyObject_RichCompareBool(x->target_id, y->target_id, Py_EQ);
        if (cmp < 0)
            return NULL;
        eq = cmp;
    }
    if (eq) {
        int cmp = PyObject_RichCompareBool(x->address, y->address, Py_EQ);
        if (cmp < 0)
            return NULL;
        eq = cmp;
    }
    if (eq) {
        int cmp = PyObject_RichCompareBool(x->field, y->field, Py_EQ);
        if (cmp < 0)
            return NULL;
        eq = cmp;
    }
    if (eq) {
        int cmp = PyObject_RichCompareBool(x->old_value, y->old_value, Py_EQ);
        if (cmp < 0)
            return NULL;
        eq = cmp;
    }
    if (op == Py_NE)
        eq = !eq;
    return PyBool_FromLong(eq);
}

static PyObject *
Undo_repr(CUndoRecord *self)
{
    return PyUnicode_FromFormat(
        "UndoRecord(seq=%lld, target=%R, addr=%S, field=%R, old=%R)",
        self->checkpoint_seq, self->target_id, self->address, self->field,
        self->old_value);
}

static PyObject *
Undo_get_seq(CUndoRecord *self, void *c)
{
    return PyLong_FromLongLong(self->checkpoint_seq);
}

static PyObject *
Undo_get_logged_at(CUndoRecord *self, void *c)
{
    return PyLong_FromLongLong(self->logged_at);
}

static PyObject *
Undo_get_member(CUndoRecord *self, void *closure)
{
    PyObject *v = *(PyObject **)((char *)self + (Py_ssize_t)closure);
    Py_INCREF(v);
    return v;
}

static PyGetSetDef Undo_getset[] = {
    {"checkpoint_seq", (getter)Undo_get_seq, NULL, NULL, NULL},
    {"logged_at", (getter)Undo_get_logged_at, NULL, NULL, NULL},
    {"target_id", (getter)Undo_get_member, NULL, NULL,
     (void *)offsetof(CUndoRecord, target_id)},
    {"address", (getter)Undo_get_member, NULL, NULL,
     (void *)offsetof(CUndoRecord, address)},
    {"field", (getter)Undo_get_member, NULL, NULL,
     (void *)offsetof(CUndoRecord, field)},
    {"old_value", (getter)Undo_get_member, NULL, NULL,
     (void *)offsetof(CUndoRecord, old_value)},
    {NULL}
};

static PyTypeObject CUndoRecord_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.UndoRecord",
    .tp_basicsize = sizeof(CUndoRecord),
    .tp_dealloc = (destructor)Undo_dealloc,
    .tp_repr = (reprfunc)Undo_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One logged state change (compiled tier).",
    .tp_traverse = (traverseproc)Undo_traverse,
    .tp_clear = (inquiry)Undo_clear_gc,
    .tp_richcompare = Undo_richcompare,
    .tp_getset = Undo_getset,
};

/* The change observer returned by SafetyNet.register_store on the compiled
 * tier: one observer per logged store, fired for every logged state change.
 * Builds the undo record and performs CheckpointLogBuffer.append inline
 * against the same Python-visible buffer state (tail cache, occupancy
 * counters), so commit_through / discard_since / records_since work
 * unchanged on the pure buffer object. */
typedef struct {
    PyObject_HEAD
    PyObject *log;              /* CheckpointLogBuffer */
    PyObject *records;          /* log._records dict (never reassigned) */
    PyObject *checkpoints;      /* SafetyNet._checkpoints list */
    PyObject *target_id;
    CSimulator *sim;
    long long capacity_entries;
} CLogObserver;

static PyTypeObject CLogObserver_Type;

static struct {
    PyObject *seq, *tail_seq, *tail, *total_logged, *occupancy,
        *peak_occupancy, *overflow_stalls;
} LS;

static int
LogObs_traverse(CLogObserver *self, visitproc visit, void *arg)
{
    Py_VISIT(self->log);
    Py_VISIT(self->records);
    Py_VISIT(self->checkpoints);
    Py_VISIT(self->target_id);
    Py_VISIT(self->sim);
    return 0;
}

static int
LogObs_clear_gc(CLogObserver *self)
{
    Py_CLEAR(self->log);
    Py_CLEAR(self->records);
    Py_CLEAR(self->checkpoints);
    Py_CLEAR(self->target_id);
    Py_CLEAR(self->sim);
    return 0;
}

static void
LogObs_dealloc(CLogObserver *self)
{
    PyObject_GC_UnTrack(self);
    LogObs_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
LogObs_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *log, *checkpoints, *target_id, *sim;
    if (!PyArg_ParseTuple(args, "OOOO", &log, &checkpoints, &target_id, &sim))
        return NULL;
    if (!Py_IS_TYPE(sim, &CSimulator_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "LogObserver requires a compiled Simulator");
        return NULL;
    }
    if (!PyList_Check(checkpoints)) {
        PyErr_SetString(PyExc_TypeError, "checkpoints must be a list");
        return NULL;
    }
    PyObject *records = PyObject_GetAttrString(log, "_records");
    if (records == NULL)
        return NULL;
    if (!PyDict_Check(records)) {
        Py_DECREF(records);
        PyErr_SetString(PyExc_TypeError, "log._records must be a dict");
        return NULL;
    }
    long long capacity;
    PyObject *cap_obj = PyObject_GetAttrString(log, "capacity_entries");
    if (cap_obj == NULL) {
        Py_DECREF(records);
        return NULL;
    }
    capacity = PyLong_AsLongLong(cap_obj);
    Py_DECREF(cap_obj);
    if (capacity == -1 && PyErr_Occurred()) {
        Py_DECREF(records);
        return NULL;
    }
    CLogObserver *self = PyObject_GC_New(CLogObserver, &CLogObserver_Type);
    if (self == NULL) {
        Py_DECREF(records);
        return NULL;
    }
    Py_INCREF(log);
    self->log = log;
    self->records = records;
    Py_INCREF(checkpoints);
    self->checkpoints = checkpoints;
    Py_INCREF(target_id);
    self->target_id = target_id;
    Py_INCREF(sim);
    self->sim = (CSimulator *)sim;
    self->capacity_entries = capacity;
    PyObject_GC_Track((PyObject *)self);
    return (PyObject *)self;
}

static PyObject *
LogObs_call(CLogObserver *self, PyObject *args, PyObject *kwds)
{
    PyObject *address, *field, *old_value, *new_value;
    if (!PyArg_UnpackTuple(args, "observer", 4, 4, &address, &field,
                           &old_value, &new_value))
        return NULL;
    (void)new_value;
    Py_ssize_t ncp = PyList_GET_SIZE(self->checkpoints);
    if (ncp == 0) {
        PyErr_SetString(PyExc_IndexError, "no checkpoints");
        return NULL;
    }
    PyObject *cp = PyList_GET_ITEM(self->checkpoints, ncp - 1);
    PyObject *seq_obj = PyObject_GetAttr(cp, LS.seq);
    if (seq_obj == NULL)
        return NULL;
    long long seq = PyLong_AsLongLong(seq_obj);
    if (seq == -1 && PyErr_Occurred()) {
        Py_DECREF(seq_obj);
        return NULL;
    }
    CUndoRecord *rec = PyObject_GC_New(CUndoRecord, &CUndoRecord_Type);
    if (rec == NULL) {
        Py_DECREF(seq_obj);
        return NULL;
    }
    rec->checkpoint_seq = seq;
    Py_INCREF(self->target_id);
    rec->target_id = self->target_id;
    Py_INCREF(address);
    rec->address = address;
    Py_INCREF(field);
    rec->field = field;
    Py_INCREF(old_value);
    rec->old_value = old_value;
    rec->logged_at = self->sim->now;
    PyObject_GC_Track((PyObject *)rec);

    /* Inline of CheckpointLogBuffer.append. */
    PyObject *log = self->log;
    PyObject *tail;
    PyObject *tail_seq_obj = PyObject_GetAttr(log, LS.tail_seq);
    if (tail_seq_obj == NULL)
        goto fail;
    int tail_hit = 0;
    if (PyLong_Check(tail_seq_obj)) {
        long long tail_seq = PyLong_AsLongLong(tail_seq_obj);
        if (tail_seq == -1 && PyErr_Occurred()) {
            Py_DECREF(tail_seq_obj);
            goto fail;
        }
        tail_hit = (tail_seq == seq);
    }
    Py_DECREF(tail_seq_obj);
    if (tail_hit) {
        tail = PyObject_GetAttr(log, LS.tail);
        if (tail == NULL)
            goto fail;
    }
    else {
        tail = PyDict_GetItemWithError(self->records, seq_obj);
        if (tail != NULL)
            Py_INCREF(tail);
        else {
            if (PyErr_Occurred())
                goto fail;
            tail = PyList_New(0);
            if (tail == NULL)
                goto fail;
            if (PyDict_SetItem(self->records, seq_obj, tail) < 0) {
                Py_DECREF(tail);
                goto fail;
            }
        }
        if (PyObject_SetAttr(log, LS.tail_seq, seq_obj) < 0 ||
            PyObject_SetAttr(log, LS.tail, tail) < 0) {
            Py_DECREF(tail);
            goto fail;
        }
    }
    Py_DECREF(seq_obj);
    seq_obj = NULL;
    {
        int rc = PyList_Append(tail, (PyObject *)rec);
        Py_DECREF(tail);
        Py_DECREF(rec);
        rec = NULL;
        if (rc < 0)
            return NULL;
    }
    if (addattr_ll(log, LS.total_logged, 1) < 0)
        return NULL;
    long long occupancy;
    if (getattr_ll(log, LS.occupancy, &occupancy) < 0)
        return NULL;
    occupancy += 1;
    if (setattr_ll(log, LS.occupancy, occupancy) < 0)
        return NULL;
    long long peak;
    if (getattr_ll(log, LS.peak_occupancy, &peak) < 0)
        return NULL;
    if (occupancy > peak &&
        setattr_ll(log, LS.peak_occupancy, occupancy) < 0)
        return NULL;
    if (occupancy > self->capacity_entries &&
        addattr_ll(log, LS.overflow_stalls, 1) < 0)
        return NULL;
    Py_RETURN_NONE;

fail:
    Py_XDECREF(seq_obj);
    Py_XDECREF(rec);
    return NULL;
}

static PyTypeObject CLogObserver_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.LogObserver",
    .tp_basicsize = sizeof(CLogObserver),
    .tp_dealloc = (destructor)LogObs_dealloc,
    .tp_call = (ternaryfunc)LogObs_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled change observer: UndoRecord construction + log "
              "append in one call.",
    .tp_traverse = (traverseproc)LogObs_traverse,
    .tp_clear = (inquiry)LogObs_clear_gc,
    .tp_new = LogObs_new,
};

/* ====================================================================== */
/* Protocol-path cores                                                    */
/*                                                                        */
/* Compiled fast paths for the per-reference / per-message protocol hot   */
/* loops: the processor issue loop (ProcessorCore), the protocol message  */
/* send path (MessageSendCore), the directory-node receive dispatch       */
/* (DirectoryReceiveCore) and the snooping bus arbitration (BusCore).     */
/* Like SwitchCore, each is a line-for-line port of the pure method it    */
/* replaces: it reads and writes the same Python attributes at the same   */
/* points, counts through the same lazily created Counters, and defers    */
/* every cold branch to the pure implementation (which stays the single   */
/* source of truth for the semantics).  They are installed by the         */
/* System._install_compiled_fast_paths hooks after wiring is final and    */
/* before any event has run.                                              */

/* Interned attribute names used by the protocol-path cores. */
static struct {
    PyObject *issue_pending, *waiting, *stalled_until, *stream_index,
        *references, *retired_instructions, *store_counter,
        *references_completed, *state, *hits, *store_value_hook,
        *counters_attr, *l1_hits, *gap, *next_send_seq, *send_seq,
        *messages_sent, *injected, *sent_name, *msg_class, *payload,
        *address, *issued_at, *ordered_at, *requests_ordered, *busy,
        *requests_issued, *arb_label, *snoop_label;
} PS;

/* Attribute -> long long via a C string name (constructor-time only). */
static int
getattrstr_ll(PyObject *obj, const char *name, long long *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* Component.count(stat) without the Python frame: hit the _counters dict
 * cache directly, fall back to the bound count() (which creates and caches
 * the Counter with the same lazy semantics as the pure tier). */
static int
comp_count(PyObject *counters_dict, PyObject *count_meth, PyObject *stat)
{
    PyObject *counter = PyDict_GetItemWithError(counters_dict, stat);
    if (counter == NULL) {
        if (PyErr_Occurred())
            return -1;
        PyObject *res = PyObject_CallOneArg(count_meth, stat);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    return counter_add(counter, 1);
}

/* ------------------------------------------------------- ProcessorCore */

/* Compiled BlockingProcessor._issue_next: the per-reference issue/retire
 * loop with the L1 lookup (set addressing + tag check + permission test
 * against the L2 coherence state) inlined.  Stream exhaustion delegates to
 * _finish_stream and an L1 miss to _issue_miss, the shared cold paths
 * split out of the pure method. */
typedef struct {
    PyObject_HEAD
    PyObject *proc;
    CSimulator *sim;            /* strong */
    CEventQueue *cqueue;        /* strong */
    PyObject *name_obj;         /* event label, == proc.name */
    long long node_id;
    long long instr_per_ref;
    long long gap_base, jitter;
    long long l1_hit_cycles;
    PyObject *store_op;         /* MemoryOp.STORE */
    PyObject *invalid_state;    /* protocol INVALID member */
    PyObject *writable;         /* tuple of write-permitting members */
    PyObject *l1_tags;          /* L1 CacheArray (hit accounting) */
    PyObject *l1_sets;          /* l1_tags._sets list */
    long long l1_block, l1_nsets;
    PyObject *l2_sets;          /* l2_array._sets list */
    long long l2_block, l2_nsets;
    PyObject *counters_dict;    /* proc._counters */
    PyObject *count_meth;       /* bound proc.count */
    PyObject *finish_meth;      /* bound proc._finish_stream */
    PyObject *miss_meth;        /* bound proc._issue_miss */
    PyObject *randint_meth;     /* bound rng.buffered_randint, NULL if no jitter */
    PyObject *gap_hi;           /* PyLong(jitter + 1) */
    PyObject *zero_obj;
} CProcCore;

static PyTypeObject CProcCore_Type;

static int
ProcCore_traverse(CProcCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->proc);
    Py_VISIT(self->sim);
    Py_VISIT(self->cqueue);
    Py_VISIT(self->name_obj);
    Py_VISIT(self->store_op);
    Py_VISIT(self->invalid_state);
    Py_VISIT(self->writable);
    Py_VISIT(self->l1_tags);
    Py_VISIT(self->l1_sets);
    Py_VISIT(self->l2_sets);
    Py_VISIT(self->counters_dict);
    Py_VISIT(self->count_meth);
    Py_VISIT(self->finish_meth);
    Py_VISIT(self->miss_meth);
    Py_VISIT(self->randint_meth);
    Py_VISIT(self->gap_hi);
    Py_VISIT(self->zero_obj);
    return 0;
}

static int
ProcCore_clear_gc(CProcCore *self)
{
    Py_CLEAR(self->proc);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->cqueue);
    Py_CLEAR(self->name_obj);
    Py_CLEAR(self->store_op);
    Py_CLEAR(self->invalid_state);
    Py_CLEAR(self->writable);
    Py_CLEAR(self->l1_tags);
    Py_CLEAR(self->l1_sets);
    Py_CLEAR(self->l2_sets);
    Py_CLEAR(self->counters_dict);
    Py_CLEAR(self->count_meth);
    Py_CLEAR(self->finish_meth);
    Py_CLEAR(self->miss_meth);
    Py_CLEAR(self->randint_meth);
    Py_CLEAR(self->gap_hi);
    Py_CLEAR(self->zero_obj);
    return 0;
}

static void
ProcCore_dealloc(CProcCore *self)
{
    PyObject_GC_UnTrack(self);
    ProcCore_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
ProcCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *proc, *l2_array, *store_op, *invalid_state, *writable;
    if (!PyArg_ParseTuple(args, "OOOOO!", &proc, &l2_array, &store_op,
                          &invalid_state, &PyTuple_Type, &writable))
        return NULL;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "ProcessorCore() takes no kwargs");
        return NULL;
    }
    CProcCore *self = PyObject_GC_New(CProcCore, &CProcCore_Type);
    if (self == NULL)
        return NULL;
    memset(((char *)self) + sizeof(PyObject), 0,
           sizeof(CProcCore) - sizeof(PyObject));
    PyObject_GC_Track((PyObject *)self);

    Py_INCREF(proc);
    self->proc = proc;
    Py_INCREF(store_op);
    self->store_op = store_op;
    Py_INCREF(invalid_state);
    self->invalid_state = invalid_state;
    Py_INCREF(writable);
    self->writable = writable;

    PyObject *sim = PyObject_GetAttrString(proc, "sim");
    if (sim == NULL)
        goto fail;
    if (!Py_IS_TYPE(sim, &CSimulator_Type)) {
        Py_DECREF(sim);
        PyErr_SetString(PyExc_TypeError,
                        "ProcessorCore requires a compiled Simulator");
        goto fail;
    }
    self->sim = (CSimulator *)sim;
    Py_INCREF(self->sim->queue);
    self->cqueue = self->sim->queue;

    self->name_obj = PyObject_GetAttrString(proc, "name");
    if (self->name_obj == NULL)
        goto fail;
    if (getattrstr_ll(proc, "node_id", &self->node_id) < 0 ||
        getattrstr_ll(proc, "_instructions_per_ref",
                      &self->instr_per_ref) < 0 ||
        getattrstr_ll(proc, "_gap_base", &self->gap_base) < 0 ||
        getattrstr_ll(proc, "_jitter", &self->jitter) < 0)
        goto fail;
    PyObject *pconfig = PyObject_GetAttrString(proc, "pconfig");
    if (pconfig == NULL)
        goto fail;
    int rc = getattrstr_ll(pconfig, "l1_hit_cycles", &self->l1_hit_cycles);
    Py_DECREF(pconfig);
    if (rc < 0)
        goto fail;

    PyObject *l1 = PyObject_GetAttrString(proc, "l1");
    if (l1 == NULL)
        goto fail;
    if (l1 == Py_None) {
        Py_DECREF(l1);
        PyErr_SetString(PyExc_TypeError,
                        "ProcessorCore requires an L1 filter cache");
        goto fail;
    }
    self->l1_tags = PyObject_GetAttrString(l1, "tags");
    Py_DECREF(l1);
    if (self->l1_tags == NULL)
        goto fail;
    self->l1_sets = PyObject_GetAttrString(self->l1_tags, "_sets");
    if (self->l1_sets == NULL || !PyList_Check(self->l1_sets)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_sets must be a list");
        goto fail;
    }
    if (getattrstr_ll(self->l1_tags, "_block_bytes", &self->l1_block) < 0 ||
        getattrstr_ll(self->l1_tags, "_num_sets", &self->l1_nsets) < 0)
        goto fail;
    self->l2_sets = PyObject_GetAttrString(l2_array, "_sets");
    if (self->l2_sets == NULL || !PyList_Check(self->l2_sets)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_sets must be a list");
        goto fail;
    }
    if (getattrstr_ll(l2_array, "_block_bytes", &self->l2_block) < 0 ||
        getattrstr_ll(l2_array, "_num_sets", &self->l2_nsets) < 0)
        goto fail;
    if (self->l1_block <= 0 || self->l1_nsets <= 0 ||
        self->l2_block <= 0 || self->l2_nsets <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "cache geometry must be positive");
        goto fail;
    }

    self->counters_dict = PyObject_GetAttrString(proc, "_counters");
    if (self->counters_dict == NULL || !PyDict_Check(self->counters_dict)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_counters must be a dict");
        goto fail;
    }
    self->count_meth = PyObject_GetAttrString(proc, "count");
    if (self->count_meth == NULL)
        goto fail;
    self->finish_meth = PyObject_GetAttrString(proc, "_finish_stream");
    if (self->finish_meth == NULL)
        goto fail;
    self->miss_meth = PyObject_GetAttrString(proc, "_issue_miss");
    if (self->miss_meth == NULL)
        goto fail;
    if (self->jitter > 0) {
        PyObject *rng = PyObject_GetAttrString(proc, "rng");
        if (rng == NULL)
            goto fail;
        self->randint_meth = PyObject_GetAttrString(rng, "buffered_randint");
        Py_DECREF(rng);
        if (self->randint_meth == NULL)
            goto fail;
        self->gap_hi = PyLong_FromLongLong(self->jitter + 1);
        self->zero_obj = PyLong_FromLong(0);
        if (self->gap_hi == NULL || self->zero_obj == NULL)
            goto fail;
    }
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* Mirror of _schedule_issue(delay): collapse duplicate wakeups on the
 * shared _issue_pending flag, then push this core as the callback (after
 * install, proc._issue_next *is* this core, so pure callers that schedule
 * the attribute push the identical callable). */
static int
proc_schedule(CProcCore *self, long long delay)
{
    PyObject *pending = PyObject_GetAttr(self->proc, PS.issue_pending);
    if (pending == NULL)
        return -1;
    int truth = PyObject_IsTrue(pending);
    Py_DECREF(pending);
    if (truth < 0)
        return -1;
    if (truth)
        return 0;
    if (PyObject_SetAttr(self->proc, PS.issue_pending, Py_True) < 0)
        return -1;
    PyObject *ev = queue_push_internal(self->cqueue, self->sim->now + delay,
                                       0, (PyObject *)self, self->name_obj);
    if (ev == NULL)
        return -1;
    Py_DECREF(ev);
    return 0;
}

static PyObject *
ProcCore_call(CProcCore *self, PyObject *args, PyObject *kwds)
{
    PyObject *p = self->proc;
    if (PyObject_SetAttr(p, PS.issue_pending, Py_False) < 0)
        return NULL;
    PyObject *tmp = PyObject_GetAttr(p, PS.waiting);
    if (tmp == NULL)
        return NULL;
    int waiting = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (waiting < 0)
        return NULL;
    if (waiting)
        Py_RETURN_NONE;
    long long now = self->sim->now;
    long long stalled;
    if (getattr_ll(p, PS.stalled_until, &stalled) < 0)
        return NULL;
    if (now < stalled) {
        if (proc_schedule(self, stalled - now) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    PyObject *refs = PyObject_GetAttr(p, PS.references);
    if (refs == NULL)
        return NULL;
    long long idx;
    if (getattr_ll(p, PS.stream_index, &idx) < 0) {
        Py_DECREF(refs);
        return NULL;
    }
    int fast_list = PyList_CheckExact(refs);
    Py_ssize_t n = fast_list ? PyList_GET_SIZE(refs) : PySequence_Size(refs);
    if (n < 0) {
        Py_DECREF(refs);
        return NULL;
    }
    if (idx >= n) {
        Py_DECREF(refs);
        PyObject *now_obj = PyLong_FromLongLong(now);
        if (now_obj == NULL)
            return NULL;
        PyObject *res = PyObject_CallOneArg(self->finish_meth, now_obj);
        Py_DECREF(now_obj);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
        Py_RETURN_NONE;
    }
    PyObject *ref;
    if (fast_list) {
        ref = PyList_GET_ITEM(refs, (Py_ssize_t)idx);
        Py_INCREF(ref);
    }
    else {
        ref = PySequence_GetItem(refs, (Py_ssize_t)idx);
    }
    Py_DECREF(refs);
    if (ref == NULL)
        return NULL;
    PyObject *op, *addr_obj;
    if (PyTuple_CheckExact(ref) && PyTuple_GET_SIZE(ref) == 2) {
        op = PyTuple_GET_ITEM(ref, 0);
        Py_INCREF(op);
        addr_obj = PyTuple_GET_ITEM(ref, 1);
        Py_INCREF(addr_obj);
    }
    else {
        op = PySequence_GetItem(ref, 0);
        addr_obj = op ? PySequence_GetItem(ref, 1) : NULL;
        if (addr_obj == NULL) {
            Py_XDECREF(op);
            Py_DECREF(ref);
            return NULL;
        }
    }
    Py_DECREF(ref);
    if (setattr_ll(p, PS.stream_index, idx + 1) < 0 ||
        addattr_ll(p, PS.retired_instructions, self->instr_per_ref) < 0)
        goto fail_opaddr;
    int is_store = (op == self->store_op);
    PyObject *value = Py_None;
    Py_INCREF(value);
    if (is_store) {
        long long sc;
        if (getattr_ll(p, PS.store_counter, &sc) < 0)
            goto fail_all;
        sc += 1;
        if (setattr_ll(p, PS.store_counter, sc) < 0)
            goto fail_all;
        Py_SETREF(value, PyLong_FromLongLong(
            self->node_id * 1000000000LL + sc));
        if (value == NULL)
            goto fail_opaddr;
    }
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred())
        goto fail_all;
    /* L2 coherence state: CacheArray.get_state without the Python frames
     * (peek semantics -- no LRU side effects). */
    PyObject *l2set = PyList_GET_ITEM(
        self->l2_sets, (Py_ssize_t)((addr / self->l2_block) % self->l2_nsets));
    PyObject *line = PyDict_GetItemWithError(l2set, addr_obj);
    if (line == NULL && PyErr_Occurred())
        goto fail_all;
    PyObject *state;
    if (line != NULL) {
        state = PyObject_GetAttr(line, PS.state);
        if (state == NULL)
            goto fail_all;
    }
    else {
        state = self->invalid_state;
        Py_INCREF(state);
    }
    /* L1 lookup: tag presence plus the permission test of L1FilterCache
     * .hit -- identity against the single protocol's members (one system
     * only ever stores its own enum in the L2 array, so the dual-protocol
     * chain of the pure method reduces to these compares). */
    PyObject *l1set = PyList_GET_ITEM(
        self->l1_sets, (Py_ssize_t)((addr / self->l1_block) % self->l1_nsets));
    int present = PyDict_Contains(l1set, addr_obj);
    if (present < 0) {
        Py_DECREF(state);
        goto fail_all;
    }
    int hit = 0;
    if (present) {
        if (!is_store)
            hit = (state != self->invalid_state);
        else {
            Py_ssize_t nw = PyTuple_GET_SIZE(self->writable);
            for (Py_ssize_t i = 0; i < nw; i++) {
                if (state == PyTuple_GET_ITEM(self->writable, i)) {
                    hit = 1;
                    break;
                }
            }
        }
    }
    Py_DECREF(state);
    if (!hit) {
        /* Cold path: the pure _issue_miss performs the miss accounting and
         * the blocking L2 access. */
        PyObject *res = PyObject_CallFunctionObjArgs(
            self->miss_meth, op, addr_obj, value, NULL);
        Py_DECREF(op);
        Py_DECREF(addr_obj);
        Py_DECREF(value);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
        Py_RETURN_NONE;
    }
    if (addattr_ll(self->l1_tags, PS.hits, 1) < 0 ||
        comp_count(self->counters_dict, self->count_meth, PS.l1_hits) < 0 ||
        addattr_ll(p, PS.references_completed, 1) < 0)
        goto fail_all;
    if (is_store) {
        /* _write_through: store value lands in the coherent L2 copy. */
        PyObject *hook = PyObject_GetAttr(p, PS.store_value_hook);
        if (hook == NULL)
            goto fail_all;
        if (hook != Py_None && value != Py_None) {
            PyObject *res = PyObject_CallFunctionObjArgs(hook, addr_obj,
                                                         value, NULL);
            Py_DECREF(hook);
            if (res == NULL)
                goto fail_all;
            Py_DECREF(res);
        }
        else
            Py_DECREF(hook);
    }
    Py_DECREF(op);
    Py_DECREF(addr_obj);
    Py_DECREF(value);
    /* _compute_gap_cycles: the buffered "gap" jitter stream. */
    long long extra = 0;
    if (self->jitter > 0) {
        PyObject *r = PyObject_CallFunctionObjArgs(
            self->randint_meth, PS.gap, self->zero_obj, self->gap_hi, NULL);
        if (r == NULL)
            return NULL;
        extra = PyLong_AsLongLong(r);
        Py_DECREF(r);
        if (extra == -1 && PyErr_Occurred())
            return NULL;
    }
    long long gap = self->gap_base + extra;
    if (gap < 1)
        gap = 1;
    if (proc_schedule(self, self->l1_hit_cycles + gap) < 0)
        return NULL;
    Py_RETURN_NONE;

fail_all:
    Py_DECREF(value);
fail_opaddr:
    Py_DECREF(op);
    Py_DECREF(addr_obj);
    return NULL;
}

static PyTypeObject CProcCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.ProcessorCore",
    .tp_basicsize = sizeof(CProcCore),
    .tp_dealloc = (destructor)ProcCore_dealloc,
    .tp_call = (ternaryfunc)ProcCore_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled BlockingProcessor issue loop "
              "(installed as proc._issue_next).",
    .tp_traverse = (traverseproc)ProcCore_traverse,
    .tp_clear = (inquiry)ProcCore_clear_gc,
    .tp_new = ProcCore_new,
};

/* ----------------------------------------------------- MessageSendCore */

/* Compiled protocol send path: the per-node send closure built by
 * DirectorySystem._make_send fused with InterconnectNetwork.send.
 * Message construction still goes through the Python NetworkMessage class
 * (the vnet precomputation lives there); the sequence assignment,
 * accounting and injection drain are inlined.  The pure network.send
 * keeps working on the same shared state and is also the fallback for the
 * unattached-endpoint error path. */
typedef struct {
    PyObject_HEAD
    PyObject *network;
    CSimulator *sim;            /* strong */
    PyObject *src_obj;
    PyObject *message_cls;      /* NetworkMessage */
    PyObject *data_cls, *wb_cls;/* MessageClass.DATA / .WRITEBACK */
    PyObject *data_size, *ctrl_size;
    PyObject *endpoints;        /* network._endpoints dict */
    PyObject *endpoint;         /* our _Endpoint */
    PyObject *pending;          /* endpoint.pending_injection deque */
    PyObject *pending_append, *pending_popleft;
    PyObject *inject;           /* bound switch.inject (core or pure) */
    PyObject *records;          /* ordering._records dict */
    PyObject *record_meth;      /* bound ordering._record */
    PyObject *sent_counters;    /* network._sent_counters list */
    PyObject *vnet_counter_meth;/* bound network._vnet_counter */
    PyObject *fallback_send;    /* bound network.send */
} CSendCore;

static PyTypeObject CSendCore_Type;

static int
SendCore_traverse(CSendCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->network);
    Py_VISIT(self->sim);
    Py_VISIT(self->src_obj);
    Py_VISIT(self->message_cls);
    Py_VISIT(self->data_cls);
    Py_VISIT(self->wb_cls);
    Py_VISIT(self->data_size);
    Py_VISIT(self->ctrl_size);
    Py_VISIT(self->endpoints);
    Py_VISIT(self->endpoint);
    Py_VISIT(self->pending);
    Py_VISIT(self->pending_append);
    Py_VISIT(self->pending_popleft);
    Py_VISIT(self->inject);
    Py_VISIT(self->records);
    Py_VISIT(self->record_meth);
    Py_VISIT(self->sent_counters);
    Py_VISIT(self->vnet_counter_meth);
    Py_VISIT(self->fallback_send);
    return 0;
}

static int
SendCore_clear_gc(CSendCore *self)
{
    Py_CLEAR(self->network);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->src_obj);
    Py_CLEAR(self->message_cls);
    Py_CLEAR(self->data_cls);
    Py_CLEAR(self->wb_cls);
    Py_CLEAR(self->data_size);
    Py_CLEAR(self->ctrl_size);
    Py_CLEAR(self->endpoints);
    Py_CLEAR(self->endpoint);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->pending_append);
    Py_CLEAR(self->pending_popleft);
    Py_CLEAR(self->inject);
    Py_CLEAR(self->records);
    Py_CLEAR(self->record_meth);
    Py_CLEAR(self->sent_counters);
    Py_CLEAR(self->vnet_counter_meth);
    Py_CLEAR(self->fallback_send);
    return 0;
}

static void
SendCore_dealloc(CSendCore *self)
{
    PyObject_GC_UnTrack(self);
    SendCore_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
SendCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *network, *message_cls, *data_cls, *wb_cls;
    long src, data_bytes, ctrl_bytes;
    if (!PyArg_ParseTuple(args, "OlOOOll", &network, &src, &message_cls,
                          &data_cls, &wb_cls, &data_bytes, &ctrl_bytes))
        return NULL;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "MessageSendCore() takes no kwargs");
        return NULL;
    }
    CSendCore *self = PyObject_GC_New(CSendCore, &CSendCore_Type);
    if (self == NULL)
        return NULL;
    memset(((char *)self) + sizeof(PyObject), 0,
           sizeof(CSendCore) - sizeof(PyObject));
    PyObject_GC_Track((PyObject *)self);

    Py_INCREF(network);
    self->network = network;
    Py_INCREF(message_cls);
    self->message_cls = message_cls;
    Py_INCREF(data_cls);
    self->data_cls = data_cls;
    Py_INCREF(wb_cls);
    self->wb_cls = wb_cls;
    self->src_obj = PyLong_FromLong(src);
    self->data_size = PyLong_FromLong(data_bytes);
    self->ctrl_size = PyLong_FromLong(ctrl_bytes);
    if (self->src_obj == NULL || self->data_size == NULL ||
        self->ctrl_size == NULL)
        goto fail;

    PyObject *sim = PyObject_GetAttrString(network, "sim");
    if (sim == NULL)
        goto fail;
    if (!Py_IS_TYPE(sim, &CSimulator_Type)) {
        Py_DECREF(sim);
        PyErr_SetString(PyExc_TypeError,
                        "MessageSendCore requires a compiled Simulator");
        goto fail;
    }
    self->sim = (CSimulator *)sim;

    self->endpoints = PyObject_GetAttrString(network, "_endpoints");
    if (self->endpoints == NULL || !PyDict_Check(self->endpoints)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_endpoints must be a dict");
        goto fail;
    }
    PyObject *endpoint = PyDict_GetItemWithError(self->endpoints,
                                                 self->src_obj);
    if (endpoint == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError,
                         "endpoint %ld is not attached", src);
        goto fail;
    }
    Py_INCREF(endpoint);
    self->endpoint = endpoint;
    self->pending = PyObject_GetAttrString(endpoint, "pending_injection");
    if (self->pending == NULL)
        goto fail;
    self->pending_append = PyObject_GetAttr(self->pending, S.append);
    if (self->pending_append == NULL)
        goto fail;
    self->pending_popleft = PyObject_GetAttr(self->pending, S.popleft);
    if (self->pending_popleft == NULL)
        goto fail;

    PyObject *switches = PyObject_GetAttrString(network, "_switches");
    if (switches == NULL)
        goto fail;
    PyObject *sw = PyObject_GetItem(switches, self->src_obj);
    Py_DECREF(switches);
    if (sw == NULL)
        goto fail;
    self->inject = PyObject_GetAttrString(sw, "inject");
    Py_DECREF(sw);
    if (self->inject == NULL)
        goto fail;

    PyObject *ordering = PyObject_GetAttr(network, S.ordering);
    if (ordering == NULL)
        goto fail;
    self->records = PyObject_GetAttrString(ordering, "_records");
    if (self->records == NULL || !PyDict_Check(self->records)) {
        Py_DECREF(ordering);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_records must be a dict");
        goto fail;
    }
    self->record_meth = PyObject_GetAttrString(ordering, "_record");
    Py_DECREF(ordering);
    if (self->record_meth == NULL)
        goto fail;

    self->sent_counters = PyObject_GetAttrString(network, "_sent_counters");
    if (self->sent_counters == NULL || !PyList_Check(self->sent_counters)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "_sent_counters must be a list");
        goto fail;
    }
    self->vnet_counter_meth = PyObject_GetAttrString(network,
                                                     "_vnet_counter");
    if (self->vnet_counter_meth == NULL)
        goto fail;
    self->fallback_send = PyObject_GetAttrString(network, "send");
    if (self->fallback_send == NULL)
        goto fail;
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

static PyObject *
SendCore_call(CSendCore *self, PyObject *args, PyObject *kwds)
{
    PyObject *dst, *msg_class, *address, *payload;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "send() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "send", 4, 4, &dst, &msg_class, &address,
                           &payload))
        return NULL;
    PyObject *size = (msg_class == self->data_cls ||
                      msg_class == self->wb_cls) ? self->data_size
                                                 : self->ctrl_size;
    /* Construct first, before the endpoint checks, like the pure
     * closure's argument evaluation order. */
    PyObject *cargs[6] = {self->src_obj, dst, msg_class, size, payload,
                          address};
    PyObject *msg = PyObject_Vectorcall(self->message_cls, cargs, 6, NULL);
    if (msg == NULL)
        return NULL;
    int has_dst = PyDict_Contains(self->endpoints, dst);
    if (has_dst < 0) {
        Py_DECREF(msg);
        return NULL;
    }
    if (!has_dst) {
        /* Pure send() raises before any bookkeeping; reproduce its error
         * by delegating. */
        PyObject *res = PyObject_CallOneArg(self->fallback_send, msg);
        Py_DECREF(msg);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
        Py_RETURN_NONE;
    }
    /* ordering.assign_send_seq(message) */
    PyObject *vnet = PyObject_GetAttr(msg, S.vnet);
    if (vnet == NULL)
        goto fail_msg;
    PyObject *key = PyTuple_Pack(3, self->src_obj, dst, vnet);
    if (key == NULL)
        goto fail_vnet;
    PyObject *rec = PyDict_GetItemWithError(self->records, key);
    int rec_new = 0;
    if (rec == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(key);
            goto fail_vnet;
        }
        rec = PyObject_CallOneArg(self->record_meth, key);
        if (rec == NULL) {
            Py_DECREF(key);
            goto fail_vnet;
        }
        rec_new = 1;
    }
    Py_DECREF(key);
    long long seq;
    if (getattr_ll(rec, PS.next_send_seq, &seq) < 0 ||
        setattr_ll(msg, PS.send_seq, seq) < 0 ||
        setattr_ll(rec, PS.next_send_seq, seq + 1) < 0) {
        if (rec_new)
            Py_DECREF(rec);
        goto fail_vnet;
    }
    if (rec_new)
        Py_DECREF(rec);
    if (setattr_ll(msg, S.injected_at, self->sim->now) < 0 ||
        addattr_ll(self->network, PS.messages_sent, 1) < 0)
        goto fail_vnet;
    /* Lazy per-vnet sent counter (same idiom as the deliver thunk). */
    Py_ssize_t vn = PyLong_AsSsize_t(vnet);
    if (vn == -1 && PyErr_Occurred())
        goto fail_vnet;
    PyObject *counter = PyList_GetItem(self->sent_counters, vn);
    if (counter == NULL)
        goto fail_vnet;
    if (counter == Py_None) {
        counter = PyObject_CallFunctionObjArgs(
            self->vnet_counter_meth, self->sent_counters, PS.sent_name,
            vnet, NULL);
        if (counter == NULL)
            goto fail_vnet;
        Py_DECREF(counter);     /* the cache list keeps it alive */
        counter = PyList_GetItem(self->sent_counters, vn);
        if (counter == NULL)
            goto fail_vnet;
    }
    if (counter_add(counter, 1) < 0)
        goto fail_vnet;
    Py_DECREF(vnet);
    /* Inline injection drain: injection almost always succeeds at once,
     * in which case the deque is never touched (same observable state as
     * the pure append-then-drain). */
    Py_ssize_t npend = PySequence_Length(self->pending);
    if (npend < 0)
        goto fail_msg;
    if (npend == 0) {
        PyObject *ok = PyObject_CallOneArg(self->inject, msg);
        if (ok == NULL)
            goto fail_msg;
        int succeeded = PyObject_IsTrue(ok);
        Py_DECREF(ok);
        if (succeeded < 0)
            goto fail_msg;
        if (succeeded) {
            if (addattr_ll(self->endpoint, PS.injected, 1) < 0)
                goto fail_msg;
        }
        else {
            PyObject *res = PyObject_CallOneArg(self->pending_append, msg);
            if (res == NULL)
                goto fail_msg;
            Py_DECREF(res);
        }
    }
    else {
        PyObject *res = PyObject_CallOneArg(self->pending_append, msg);
        if (res == NULL)
            goto fail_msg;
        Py_DECREF(res);
        for (;;) {
            Py_ssize_t remaining = PySequence_Length(self->pending);
            if (remaining < 0)
                goto fail_msg;
            if (remaining == 0)
                break;
            PyObject *head = PySequence_GetItem(self->pending, 0);
            if (head == NULL)
                goto fail_msg;
            PyObject *ok = PyObject_CallOneArg(self->inject, head);
            Py_DECREF(head);
            if (ok == NULL)
                goto fail_msg;
            int succeeded = PyObject_IsTrue(ok);
            Py_DECREF(ok);
            if (succeeded < 0)
                goto fail_msg;
            if (!succeeded)
                break;
            PyObject *popped = PyObject_CallNoArgs(self->pending_popleft);
            if (popped == NULL)
                goto fail_msg;
            Py_DECREF(popped);
            if (addattr_ll(self->endpoint, PS.injected, 1) < 0)
                goto fail_msg;
        }
    }
    Py_DECREF(msg);
    Py_RETURN_NONE;

fail_vnet:
    Py_DECREF(vnet);
fail_msg:
    Py_DECREF(msg);
    return NULL;
}

static PyTypeObject CSendCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.MessageSendCore",
    .tp_basicsize = sizeof(CSendCore),
    .tp_dealloc = (destructor)SendCore_dealloc,
    .tp_call = (ternaryfunc)SendCore_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled protocol send path "
              "(installed as a controller's .send).",
    .tp_traverse = (traverseproc)SendCore_traverse,
    .tp_clear = (inquiry)SendCore_clear_gc,
    .tp_new = SendCore_new,
};

/* ------------------------------------------------ DirectoryReceiveCore */

/* Compiled directory-node receive dispatch: the vnet split of
 * DirectorySystem._make_receiver fused with the transition-handler
 * dispatch of both controllers' handle_message.  The handler bodies stay
 * pure Python; anything irregular (missing address, unknown class) falls
 * back to the pure handle_message so asserts and ValueErrors are raised
 * by the one authoritative implementation. */
typedef struct {
    PyObject_HEAD
    PyObject *vnet_request, *vnet_final_ack;
    PyObject *cls_req_ro, *cls_req_rw, *cls_wb, *cls_final;
    PyObject *dir_handle, *cache_handle;    /* bound handle_message */
    PyObject *dir_req, *dir_wb, *dir_final; /* bound directory handlers */
    PyObject *handlers;                     /* cache_ctrl._handlers dict */
} CRecvCore;

static PyTypeObject CRecvCore_Type;

static int
RecvCore_traverse(CRecvCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->vnet_request);
    Py_VISIT(self->vnet_final_ack);
    Py_VISIT(self->cls_req_ro);
    Py_VISIT(self->cls_req_rw);
    Py_VISIT(self->cls_wb);
    Py_VISIT(self->cls_final);
    Py_VISIT(self->dir_handle);
    Py_VISIT(self->cache_handle);
    Py_VISIT(self->dir_req);
    Py_VISIT(self->dir_wb);
    Py_VISIT(self->dir_final);
    Py_VISIT(self->handlers);
    return 0;
}

static int
RecvCore_clear_gc(CRecvCore *self)
{
    Py_CLEAR(self->vnet_request);
    Py_CLEAR(self->vnet_final_ack);
    Py_CLEAR(self->cls_req_ro);
    Py_CLEAR(self->cls_req_rw);
    Py_CLEAR(self->cls_wb);
    Py_CLEAR(self->cls_final);
    Py_CLEAR(self->dir_handle);
    Py_CLEAR(self->cache_handle);
    Py_CLEAR(self->dir_req);
    Py_CLEAR(self->dir_wb);
    Py_CLEAR(self->dir_final);
    Py_CLEAR(self->handlers);
    return 0;
}

static void
RecvCore_dealloc(CRecvCore *self)
{
    PyObject_GC_UnTrack(self);
    RecvCore_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
RecvCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *cache_ctrl, *directory, *vnet_request, *vnet_final_ack;
    PyObject *cls_req_ro, *cls_req_rw, *cls_wb, *cls_final;
    if (!PyArg_ParseTuple(args, "OOOOOOOO", &cache_ctrl, &directory,
                          &vnet_request, &vnet_final_ack, &cls_req_ro,
                          &cls_req_rw, &cls_wb, &cls_final))
        return NULL;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError,
                        "DirectoryReceiveCore() takes no kwargs");
        return NULL;
    }
    CRecvCore *self = PyObject_GC_New(CRecvCore, &CRecvCore_Type);
    if (self == NULL)
        return NULL;
    memset(((char *)self) + sizeof(PyObject), 0,
           sizeof(CRecvCore) - sizeof(PyObject));
    PyObject_GC_Track((PyObject *)self);

    Py_INCREF(vnet_request);
    self->vnet_request = vnet_request;
    Py_INCREF(vnet_final_ack);
    self->vnet_final_ack = vnet_final_ack;
    Py_INCREF(cls_req_ro);
    self->cls_req_ro = cls_req_ro;
    Py_INCREF(cls_req_rw);
    self->cls_req_rw = cls_req_rw;
    Py_INCREF(cls_wb);
    self->cls_wb = cls_wb;
    Py_INCREF(cls_final);
    self->cls_final = cls_final;

    self->dir_handle = PyObject_GetAttrString(directory, "handle_message");
    if (self->dir_handle == NULL)
        goto fail;
    self->cache_handle = PyObject_GetAttrString(cache_ctrl, "handle_message");
    if (self->cache_handle == NULL)
        goto fail;
    self->dir_req = PyObject_GetAttrString(directory, "_handle_request");
    if (self->dir_req == NULL)
        goto fail;
    self->dir_wb = PyObject_GetAttrString(directory, "_handle_writeback");
    if (self->dir_wb == NULL)
        goto fail;
    self->dir_final = PyObject_GetAttrString(directory, "_handle_final_ack");
    if (self->dir_final == NULL)
        goto fail;
    self->handlers = PyObject_GetAttrString(cache_ctrl, "_handlers");
    if (self->handlers == NULL || !PyDict_Check(self->handlers)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_handlers must be a dict");
        goto fail;
    }
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

static PyObject *
RecvCore_call(CRecvCore *self, PyObject *args, PyObject *kwds)
{
    PyObject *message;
    if (!PyArg_UnpackTuple(args, "receive", 1, 1, &message))
        return NULL;
    PyObject *vnet = PyObject_GetAttr(message, S.vnet);
    if (vnet == NULL)
        return NULL;
    int is_dir = (vnet == self->vnet_request ||
                  vnet == self->vnet_final_ack);
    Py_DECREF(vnet);
    PyObject *address = PyObject_GetAttr(message, PS.address);
    if (address == NULL)
        return NULL;
    PyObject *res;
    if (address == Py_None) {
        /* Pure handle_message owns the assertion for this. */
        Py_DECREF(address);
        res = PyObject_CallOneArg(
            is_dir ? self->dir_handle : self->cache_handle, message);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
        Py_RETURN_NONE;
    }
    PyObject *msg_class = PyObject_GetAttr(message, PS.msg_class);
    if (msg_class == NULL) {
        Py_DECREF(address);
        return NULL;
    }
    PyObject *payload = PyObject_GetAttr(message, PS.payload);
    if (payload == NULL) {
        Py_DECREF(msg_class);
        Py_DECREF(address);
        return NULL;
    }
    if (is_dir) {
        PyObject *src = PyObject_GetAttr(message, S.src);
        if (src == NULL) {
            res = NULL;
        }
        else {
            if (msg_class == self->cls_req_ro ||
                msg_class == self->cls_req_rw)
                res = PyObject_CallFunctionObjArgs(
                    self->dir_req, address, src, msg_class, payload, NULL);
            else if (msg_class == self->cls_wb)
                res = PyObject_CallFunctionObjArgs(
                    self->dir_wb, address, src, payload, NULL);
            else if (msg_class == self->cls_final)
                res = PyObject_CallFunctionObjArgs(
                    self->dir_final, address, src, NULL);
            else
                /* Unknown class: pure handle_message raises ValueError. */
                res = PyObject_CallOneArg(self->dir_handle, message);
            Py_DECREF(src);
        }
    }
    else {
        PyObject *handler = PyDict_GetItemWithError(self->handlers,
                                                    msg_class);
        if (handler == NULL && PyErr_Occurred())
            res = NULL;
        else if (handler == NULL)
            res = PyObject_CallOneArg(self->cache_handle, message);
        else
            res = PyObject_CallFunctionObjArgs(handler, address, payload,
                                               NULL);
    }
    Py_DECREF(payload);
    Py_DECREF(msg_class);
    Py_DECREF(address);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyTypeObject CRecvCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.DirectoryReceiveCore",
    .tp_basicsize = sizeof(CRecvCore),
    .tp_dealloc = (destructor)RecvCore_dealloc,
    .tp_call = (ternaryfunc)RecvCore_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled directory-node receive dispatch "
              "(installed as endpoint.receive).",
    .tp_traverse = (traverseproc)RecvCore_traverse,
    .tp_clear = (inquiry)RecvCore_clear_gc,
    .tp_new = RecvCore_new,
};

/* ---------------------------------------------------------- BusCore */

/* Compiled snooping address-bus arbitration: issue -> _try_start ->
 * _order_next, replacing three Python frames and a closure per ordered
 * request.  The broadcast itself (the snoop filter and the snooper, memory
 * and hook calls) is the pure AddressBus._broadcast, called from a thunk.
 * The request deque, the _busy flag and every counter stay on the Python
 * AddressBus (flush() and the stats reports read them); the arbitration
 * event is a reused static event -- legal because the busy flag
 * guarantees at most one is ever pending, and seq numbers are drawn from
 * the same shared queue counter a pure push would use. */
typedef struct CBusCoreT CBusCore;

struct CBusCoreT {
    PyObject_HEAD
    PyObject *bus;
    CSimulator *sim;            /* strong */
    CEventQueue *cqueue;        /* strong */
    PyObject *queue_deque;      /* bus._queue */
    PyObject *q_append, *q_popleft;
    PyObject *counters_dict;    /* bus._counters */
    PyObject *count_meth;       /* bound bus.count */
    PyObject *broadcast;        /* bound bus._broadcast */
    long long arbitration_cycles, snoop_latency;
    CEvent *arb_event;          /* strong, static, callback == self */
    int busy;
};

static PyTypeObject CBusCore_Type;
static PyTypeObject CBusSnoopThunk_Type;

/* Per-broadcast thunk: the pure `lambda: self._broadcast(request)`. */
typedef struct {
    PyObject_HEAD
    CBusCore *core;             /* strong */
    PyObject *request;          /* strong */
} CBusSnoopThunk;

static int
BusThunk_traverse(CBusSnoopThunk *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    Py_VISIT(self->request);
    return 0;
}

static int
BusThunk_clear_gc(CBusSnoopThunk *self)
{
    Py_CLEAR(self->core);
    Py_CLEAR(self->request);
    return 0;
}

static void
BusThunk_dealloc(CBusSnoopThunk *self)
{
    PyObject_GC_UnTrack(self);
    BusThunk_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
BusThunk_call(CBusSnoopThunk *self, PyObject *args, PyObject *kwds)
{
    return PyObject_CallOneArg(self->core->broadcast, self->request);
}

static PyTypeObject CBusSnoopThunk_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._BusSnoopThunk",
    .tp_basicsize = sizeof(CBusSnoopThunk),
    .tp_dealloc = (destructor)BusThunk_dealloc,
    .tp_call = (ternaryfunc)BusThunk_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)BusThunk_traverse,
    .tp_clear = (inquiry)BusThunk_clear_gc,
};

static int
BusCore_traverse(CBusCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->bus);
    Py_VISIT(self->sim);
    Py_VISIT(self->cqueue);
    Py_VISIT(self->queue_deque);
    Py_VISIT(self->q_append);
    Py_VISIT(self->q_popleft);
    Py_VISIT(self->counters_dict);
    Py_VISIT(self->count_meth);
    Py_VISIT(self->broadcast);
    Py_VISIT(self->arb_event);
    return 0;
}

static int
BusCore_clear_gc(CBusCore *self)
{
    Py_CLEAR(self->bus);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->cqueue);
    Py_CLEAR(self->queue_deque);
    Py_CLEAR(self->q_append);
    Py_CLEAR(self->q_popleft);
    Py_CLEAR(self->counters_dict);
    Py_CLEAR(self->count_meth);
    Py_CLEAR(self->broadcast);
    Py_CLEAR(self->arb_event);
    return 0;
}

static void
BusCore_dealloc(CBusCore *self)
{
    PyObject_GC_UnTrack(self);
    BusCore_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
BusCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *bus;
    if (!PyArg_ParseTuple(args, "O", &bus))
        return NULL;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "BusCore() takes no kwargs");
        return NULL;
    }
    CBusCore *self = PyObject_GC_New(CBusCore, &CBusCore_Type);
    if (self == NULL)
        return NULL;
    memset(((char *)self) + sizeof(PyObject), 0,
           sizeof(CBusCore) - sizeof(PyObject));
    PyObject_GC_Track((PyObject *)self);

    Py_INCREF(bus);
    self->bus = bus;
    PyObject *sim = PyObject_GetAttrString(bus, "sim");
    if (sim == NULL)
        goto fail;
    if (!Py_IS_TYPE(sim, &CSimulator_Type)) {
        Py_DECREF(sim);
        PyErr_SetString(PyExc_TypeError,
                        "BusCore requires a compiled Simulator");
        goto fail;
    }
    self->sim = (CSimulator *)sim;
    Py_INCREF(self->sim->queue);
    self->cqueue = self->sim->queue;

    self->queue_deque = PyObject_GetAttr(bus, S.queue_attr);
    if (self->queue_deque == NULL)
        goto fail;
    self->q_append = PyObject_GetAttr(self->queue_deque, S.append);
    if (self->q_append == NULL)
        goto fail;
    self->q_popleft = PyObject_GetAttr(self->queue_deque, S.popleft);
    if (self->q_popleft == NULL)
        goto fail;
    self->counters_dict = PyObject_GetAttrString(bus, "_counters");
    if (self->counters_dict == NULL || !PyDict_Check(self->counters_dict)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_counters must be a dict");
        goto fail;
    }
    self->count_meth = PyObject_GetAttrString(bus, "count");
    if (self->count_meth == NULL)
        goto fail;
    self->broadcast = PyObject_GetAttrString(bus, "_broadcast");
    if (self->broadcast == NULL)
        goto fail;
    if (getattrstr_ll(bus, "arbitration_cycles",
                      &self->arbitration_cycles) < 0 ||
        getattrstr_ll(bus, "snoop_latency_cycles",
                      &self->snoop_latency) < 0)
        goto fail;
    PyObject *busy = PyObject_GetAttr(bus, PS.busy);
    if (busy == NULL)
        goto fail;
    self->busy = PyObject_IsTrue(busy);
    Py_DECREF(busy);
    if (self->busy < 0)
        goto fail;
    self->arb_event = event_alloc(0, 0, 0, (PyObject *)self, PS.arb_label);
    if (self->arb_event == NULL)
        goto fail;
    self->arb_event->is_static = 1;
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* Push the static arbitration event at absolute cycle `time` (mirror of
 * core_push_scan). */
static int
bus_push_arb(CBusCore *self, long long time)
{
    CEventQueue *q = self->cqueue;
    CEvent *ev = self->arb_event;
    long long seq = q->seq++;
    ev->time = time;
    ev->seq = seq;
    ev->cancelled = 0;
    Py_INCREF(q);
    Py_XSETREF(ev->queue, (PyObject *)q);
    HeapEntry entry = {time, ev->priority, seq, ev};
    Py_INCREF(ev);
    if (heap_push_entry(q, entry) < 0)
        return -1;
    q->live++;
    return 0;
}

static int
bus_try_start(CBusCore *self)
{
    if (self->busy)
        return 0;
    Py_ssize_t n = PySequence_Length(self->queue_deque);
    if (n < 0)
        return -1;
    if (n == 0)
        return 0;
    self->busy = 1;
    if (PyObject_SetAttr(self->bus, PS.busy, Py_True) < 0)
        return -1;
    return bus_push_arb(self, self->sim->now + self->arbitration_cycles);
}

/* The static arbitration event fires the core itself: _order_next. */
static PyObject *
BusCore_call(CBusCore *self, PyObject *args, PyObject *kwds)
{
    self->busy = 0;
    if (PyObject_SetAttr(self->bus, PS.busy, Py_False) < 0)
        return NULL;
    Py_ssize_t n = PySequence_Length(self->queue_deque);
    if (n < 0)
        return NULL;
    if (n == 0)
        Py_RETURN_NONE;
    PyObject *request = PyObject_CallNoArgs(self->q_popleft);
    if (request == NULL)
        return NULL;
    if (setattr_ll(request, PS.ordered_at, self->sim->now) < 0 ||
        addattr_ll(self->bus, PS.requests_ordered, 1) < 0 ||
        comp_count(self->counters_dict, self->count_meth,
                   PS.requests_ordered) < 0) {
        Py_DECREF(request);
        return NULL;
    }
    CBusSnoopThunk *thunk = PyObject_GC_New(CBusSnoopThunk,
                                            &CBusSnoopThunk_Type);
    if (thunk == NULL) {
        Py_DECREF(request);
        return NULL;
    }
    Py_INCREF(self);
    thunk->core = self;
    thunk->request = request;           /* reference transferred */
    PyObject_GC_Track((PyObject *)thunk);
    PyObject *ev = queue_push_internal(
        self->cqueue, self->sim->now + self->snoop_latency, 0,
        (PyObject *)thunk, PS.snoop_label);
    Py_DECREF(thunk);
    if (ev == NULL)
        return NULL;
    Py_DECREF(ev);
    /* Keep the pipeline going: next request can arbitrate immediately. */
    if (bus_try_start(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
BusCore_issue(CBusCore *self, PyObject *request)
{
    if (setattr_ll(request, PS.issued_at, self->sim->now) < 0)
        return NULL;
    PyObject *res = PyObject_CallOneArg(self->q_append, request);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    if (comp_count(self->counters_dict, self->count_meth,
                   PS.requests_issued) < 0)
        return NULL;
    if (bus_try_start(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef BusCore_methods[] = {
    {"issue", (PyCFunction)BusCore_issue, METH_O,
     "Queue a request for arbitration (compiled AddressBus.issue)."},
    {NULL}
};

static PyTypeObject CBusCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.BusCore",
    .tp_basicsize = sizeof(CBusCore),
    .tp_dealloc = (destructor)BusCore_dealloc,
    .tp_call = (ternaryfunc)BusCore_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled snooping bus arbitration "
              "(bus.issue is rebound to core.issue).",
    .tp_traverse = (traverseproc)BusCore_traverse,
    .tp_clear = (inquiry)BusCore_clear_gc,
    .tp_methods = BusCore_methods,
    .tp_new = BusCore_new,
};

/* ------------------------------------------- blocking controller lifecycle */

/* The transaction lifecycle of repro.coherence.controller.
 * BlockingCacheController, written once for both L2 controllers: access()
 * (L2 lookup + hit finish + miss issue), the reusable finish and timeout
 * thunks, the issue path, fresh-line allocation and completion.
 * TransactionCore and SnoopCore both begin with a CCtrlCore; the protocol
 * supplies its miss request and its part of completion through the two
 * hooks.  Every cold or rare branch (slow-start retry, full-set install,
 * recovery) stays pure.  Completion runs through the controller's
 * _pending_request/_pending_on_complete attributes, the same protocol the
 * pure _complete_current uses. */

/* Interned attribute names used by the controller/memory-complete cores. */
static struct {
    PyObject *transaction, *timeout_cycles, *pending_request,
        *pending_on_complete, *data_received, *acks_needed, *acks_received,
        *acks_expected, *completed, *on_complete_attr, *timeout_event,
        *started_at, *txn_id, *op, *tick, *last_used, *misses, *evictions,
        *completed_at, *miss_hist, *mem_hist, *buckets, *count_name, *total,
        *min_name, *max_name, *bucket_width, *cancel, *load_hits,
        *store_hits, *load_misses, *store_misses, *transactions_issued,
        *transactions_completed, *stale_data, *duplicate_data, *stale_acks,
        *memory_references, *value_hint;
} TS;

typedef struct CCtrlCoreT CCtrlCore;

struct CCtrlCoreT {
    PyObject_HEAD
    /* _request(txn): send the miss request of a new transaction. */
    int (*request)(CCtrlCore *self, PyObject *txn, PyObject *addr_obj,
                   long long addr, int is_load);
    /* _transaction_done(txn); NULL when the protocol has no part in it. */
    int (*done)(CCtrlCore *self, PyObject *txn, PyObject *taddr_obj,
                long long taddr);
    PyObject *ctrl;
    CSimulator *sim;            /* strong */
    CEventQueue *cqueue;        /* strong */
    PyObject *name_obj;         /* ctrl.name (event label) */
    PyObject *node_obj;         /* PyLong ctrl.node_id */
    PyObject *load_op, *store_op;
    PyObject *invalid_state, *shared_state, *modified_state;
    PyObject *writable;         /* ctrl.WRITABLE (tuple of states) */
    PyObject *txn_cls, *line_cls;
    PyObject *txn_ids;          /* ctrl._txn_ids (the system's id stream) */
    PyObject *cache;            /* ctrl.cache (CacheArray) */
    PyObject *l2_sets;          /* cache._sets */
    long long l2_block, l2_nsets, assoc;
    PyObject *observer;         /* cache._observer (Py_None when unset) */
    long long l2_hit_cycles;
    PyObject *l2_hit_obj;
    PyObject *may_issue, *on_retire;
    PyObject *counters_dict, *count_meth;
    PyObject *complete_cb;      /* bound ctrl._complete_current */
    PyObject *pure_issue;       /* bound ctrl._issue_transaction */
    PyObject *retry_meth;       /* bound ctrl._retry_issue */
    PyObject *pure_install;     /* bound ctrl._install_line */
    PyObject *finish_meth;      /* bound ctrl._finish */
    PyObject *timeout_meth;     /* bound ctrl._transaction_timeout */
    PyObject *zero_obj;
    PyObject *finish_thunk;     /* CFinishThunk */
    PyObject *timeout_thunk;    /* CTimeoutThunk */
};

/* Reusable finish thunk: the _finish() closure of the single outstanding
 * reference (blocking processor => at most one in flight per controller). */
typedef struct {
    PyObject_HEAD
    CCtrlCore *core;            /* strong (cycle collected via GC) */
    PyObject *request, *cb;     /* armed payload; NULL when idle */
} CFinishThunk;

/* Reusable timeout thunk: the `lambda: self._transaction_timeout(txn)`
 * of the single outstanding transaction. */
typedef struct {
    PyObject_HEAD
    CCtrlCore *core;            /* strong */
    PyObject *txn;
} CTimeoutThunk;

static PyTypeObject CMemCore_Type;

/* ------------------------------------------------------- shared helpers */

/* next(ctrl._txn_ids) as the pure controllers draw it: a new reference,
 * or NULL with StopIteration set once the stream is exhausted. */
static PyObject *
next_txn_id(PyObject *txn_ids)
{
    PyObject *txn_id = PyIter_Next(txn_ids);
    if (txn_id == NULL && !PyErr_Occurred())
        PyErr_SetNone(PyExc_StopIteration);
    return txn_id;
}

/* CacheArray._notify: fire the change observer when present and the value
 * actually changed (generic != like the pure method). */
static int
txn_notify(PyObject *observer, PyObject *address, PyObject *field_name,
           PyObject *old, PyObject *new)
{
    if (observer == NULL || observer == Py_None)
        return 0;
    int differs = PyObject_RichCompareBool(old, new, Py_NE);
    if (differs < 0)
        return -1;
    if (!differs)
        return 0;
    PyObject *res = PyObject_CallFunctionObjArgs(observer, address,
                                                 field_name, old, new, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* CacheArray.set_value on a line known to be present. */
static int
txn_set_value(PyObject *observer, PyObject *line, PyObject *address,
              PyObject *value)
{
    PyObject *old = PyObject_GetAttr(line, S.value);
    if (old == NULL)
        return -1;
    if (PyObject_SetAttr(line, S.value, value) < 0) {
        Py_DECREF(old);
        return -1;
    }
    int rc = txn_notify(observer, address, S.value, old, value);
    Py_DECREF(old);
    return rc;
}

/* CacheArray.set_state to a non-Invalid state on a line known present. */
static int
txn_set_state(PyObject *observer, PyObject *line, PyObject *address,
              PyObject *state)
{
    PyObject *old = PyObject_GetAttr(line, PS.state);
    if (old == NULL)
        return -1;
    if (PyObject_SetAttr(line, PS.state, state) < 0) {
        Py_DECREF(old);
        return -1;
    }
    int rc = txn_notify(observer, address, PS.state, old, state);
    Py_DECREF(old);
    return rc;
}

/* Histogram.record(value) without the Python frame. */
static int
hist_record_ll(PyObject *hist, long long value)
{
    long long bw;
    if (getattr_ll(hist, TS.bucket_width, &bw) < 0)
        return -1;
    long long bucket = value / bw;
    if ((value % bw) != 0 && ((value < 0) != (bw < 0)))
        bucket--;
    PyObject *buckets = PyObject_GetAttr(hist, TS.buckets);
    if (buckets == NULL || !PyDict_Check(buckets)) {
        Py_XDECREF(buckets);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "buckets must be a dict");
        return -1;
    }
    PyObject *key = PyLong_FromLongLong(bucket);
    if (key == NULL) {
        Py_DECREF(buckets);
        return -1;
    }
    PyObject *cur = PyDict_GetItemWithError(buckets, key);
    long long n = 0;
    if (cur != NULL) {
        n = PyLong_AsLongLong(cur);
        if (n == -1 && PyErr_Occurred())
            goto fail;
    }
    else if (PyErr_Occurred())
        goto fail;
    PyObject *newcount = PyLong_FromLongLong(n + 1);
    if (newcount == NULL)
        goto fail;
    int rc = PyDict_SetItem(buckets, key, newcount);
    Py_DECREF(newcount);
    if (rc < 0)
        goto fail;
    Py_DECREF(key);
    Py_DECREF(buckets);
    if (addattr_ll(hist, TS.count_name, 1) < 0 ||
        addattr_ll(hist, TS.total, value) < 0)
        return -1;
    PyObject *cur_min = PyObject_GetAttr(hist, TS.min_name);
    if (cur_min == NULL)
        return -1;
    int replace = (cur_min == Py_None);
    if (!replace) {
        long long m = PyLong_AsLongLong(cur_min);
        if (m == -1 && PyErr_Occurred()) {
            Py_DECREF(cur_min);
            return -1;
        }
        replace = value < m;
    }
    Py_DECREF(cur_min);
    if (replace && setattr_ll(hist, TS.min_name, value) < 0)
        return -1;
    PyObject *cur_max = PyObject_GetAttr(hist, TS.max_name);
    if (cur_max == NULL)
        return -1;
    replace = (cur_max == Py_None);
    if (!replace) {
        long long m = PyLong_AsLongLong(cur_max);
        if (m == -1 && PyErr_Occurred()) {
            Py_DECREF(cur_max);
            return -1;
        }
        replace = value > m;
    }
    Py_DECREF(cur_max);
    if (replace && setattr_ll(hist, TS.max_name, value) < 0)
        return -1;
    return 0;

fail:
    Py_DECREF(key);
    Py_DECREF(buckets);
    return -1;
}

/* ------------------------------------------------------- finish thunk */

static int
Finish_traverse(CFinishThunk *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    Py_VISIT(self->request);
    Py_VISIT(self->cb);
    return 0;
}

static int
Finish_clear_gc(CFinishThunk *self)
{
    Py_CLEAR(self->core);
    Py_CLEAR(self->request);
    Py_CLEAR(self->cb);
    return 0;
}

static void
Finish_dealloc(CFinishThunk *self)
{
    PyObject_GC_UnTrack(self);
    Finish_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
Finish_call(CFinishThunk *self, PyObject *args, PyObject *kwds)
{
    /* _finish._done: stamp completion time, then hand the request back. */
    PyObject *request = self->request;
    PyObject *cb = self->cb;
    self->request = NULL;
    self->cb = NULL;
    if (request == NULL || cb == NULL) {
        Py_XDECREF(request);
        Py_XDECREF(cb);
        PyErr_SetString(PyExc_RuntimeError, "finish thunk fired while idle");
        return NULL;
    }
    if (setattr_ll(request, TS.completed_at, self->core->sim->now) < 0) {
        Py_DECREF(request);
        Py_DECREF(cb);
        return NULL;
    }
    PyObject *res = PyObject_CallOneArg(cb, request);
    Py_DECREF(request);
    Py_DECREF(cb);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyTypeObject CFinishThunk_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._FinishThunk",
    .tp_basicsize = sizeof(CFinishThunk),
    .tp_dealloc = (destructor)Finish_dealloc,
    .tp_call = (ternaryfunc)Finish_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Finish_traverse,
    .tp_clear = (inquiry)Finish_clear_gc,
};

/* ------------------------------------------------------ timeout thunk */

static int
Timeout_traverse(CTimeoutThunk *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    Py_VISIT(self->txn);
    return 0;
}

static int
Timeout_clear_gc(CTimeoutThunk *self)
{
    Py_CLEAR(self->core);
    Py_CLEAR(self->txn);
    return 0;
}

static void
Timeout_dealloc(CTimeoutThunk *self)
{
    PyObject_GC_UnTrack(self);
    Timeout_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
Timeout_call(CTimeoutThunk *self, PyObject *args, PyObject *kwds)
{
    PyObject *txn = self->txn;
    self->txn = NULL;
    if (txn == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "timeout thunk fired while idle");
        return NULL;
    }
    PyObject *res = PyObject_CallOneArg(self->core->timeout_meth, txn);
    Py_DECREF(txn);
    return res;
}

static PyTypeObject CTimeoutThunk_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._TimeoutThunk",
    .tp_basicsize = sizeof(CTimeoutThunk),
    .tp_dealloc = (destructor)Timeout_dealloc,
    .tp_call = (ternaryfunc)Timeout_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Timeout_traverse,
    .tp_clear = (inquiry)Timeout_clear_gc,
};

/* ------------------------------------------------------- shared core */

static int
ctrl_traverse(CCtrlCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->ctrl);
    Py_VISIT(self->sim);
    Py_VISIT(self->cqueue);
    Py_VISIT(self->name_obj);
    Py_VISIT(self->node_obj);
    Py_VISIT(self->load_op);
    Py_VISIT(self->store_op);
    Py_VISIT(self->invalid_state);
    Py_VISIT(self->shared_state);
    Py_VISIT(self->modified_state);
    Py_VISIT(self->writable);
    Py_VISIT(self->txn_cls);
    Py_VISIT(self->line_cls);
    Py_VISIT(self->txn_ids);
    Py_VISIT(self->cache);
    Py_VISIT(self->l2_sets);
    Py_VISIT(self->observer);
    Py_VISIT(self->l2_hit_obj);
    Py_VISIT(self->may_issue);
    Py_VISIT(self->on_retire);
    Py_VISIT(self->counters_dict);
    Py_VISIT(self->count_meth);
    Py_VISIT(self->complete_cb);
    Py_VISIT(self->pure_issue);
    Py_VISIT(self->retry_meth);
    Py_VISIT(self->pure_install);
    Py_VISIT(self->finish_meth);
    Py_VISIT(self->timeout_meth);
    Py_VISIT(self->zero_obj);
    Py_VISIT(self->finish_thunk);
    Py_VISIT(self->timeout_thunk);
    return 0;
}

static int
ctrl_clear(CCtrlCore *self)
{
    Py_CLEAR(self->ctrl);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->cqueue);
    Py_CLEAR(self->name_obj);
    Py_CLEAR(self->node_obj);
    Py_CLEAR(self->load_op);
    Py_CLEAR(self->store_op);
    Py_CLEAR(self->invalid_state);
    Py_CLEAR(self->shared_state);
    Py_CLEAR(self->modified_state);
    Py_CLEAR(self->writable);
    Py_CLEAR(self->txn_cls);
    Py_CLEAR(self->line_cls);
    Py_CLEAR(self->txn_ids);
    Py_CLEAR(self->cache);
    Py_CLEAR(self->l2_sets);
    Py_CLEAR(self->observer);
    Py_CLEAR(self->l2_hit_obj);
    Py_CLEAR(self->may_issue);
    Py_CLEAR(self->on_retire);
    Py_CLEAR(self->counters_dict);
    Py_CLEAR(self->count_meth);
    Py_CLEAR(self->complete_cb);
    Py_CLEAR(self->pure_issue);
    Py_CLEAR(self->retry_meth);
    Py_CLEAR(self->pure_install);
    Py_CLEAR(self->finish_meth);
    Py_CLEAR(self->timeout_meth);
    Py_CLEAR(self->zero_obj);
    Py_CLEAR(self->finish_thunk);
    Py_CLEAR(self->timeout_thunk);
    return 0;
}

/* tp_dealloc of both cores: their tp_clear releases every field. */
static void
ctrl_dealloc(CCtrlCore *self)
{
    PyObject_GC_UnTrack(self);
    Py_TYPE(self)->tp_clear((PyObject *)self);
    PyObject_GC_Del(self);
}

/* *field = getattr(obj, name): 0, or -1 with an exception set. */
static int
capture_attr(PyObject **field, PyObject *obj, const char *name)
{
    *field = PyObject_GetAttrString(obj, name);
    return *field == NULL ? -1 : 0;
}

/* Allocate a core of `type` (a struct beginning with a CCtrlCore) for the
 * controller `ctrl` and capture the shared fields: the simulator, the
 * cache and its geometry, the state constants ctrl.INVALID/SHARED/
 * MODIFIED/WRITABLE, the slow-start hooks, the counters and the bound
 * pure methods of the cold paths.  Returns a new reference, or NULL with
 * an exception set. */
static CCtrlCore *
ctrl_new(PyTypeObject *type, PyObject *kwds, PyObject *ctrl,
         PyObject *load_op, PyObject *store_op, PyObject *txn_cls,
         PyObject *line_cls)
{
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_Format(PyExc_TypeError, "%s() takes no kwargs", type->tp_name);
        return NULL;
    }
    CCtrlCore *self = PyObject_GC_New(CCtrlCore, type);
    if (self == NULL)
        return NULL;
    memset(((char *)self) + sizeof(PyObject), 0,
           type->tp_basicsize - sizeof(PyObject));
    PyObject_GC_Track((PyObject *)self);

    self->ctrl = Py_NewRef(ctrl);
    self->load_op = Py_NewRef(load_op);
    self->store_op = Py_NewRef(store_op);
    self->txn_cls = Py_NewRef(txn_cls);
    self->line_cls = Py_NewRef(line_cls);
    PyObject *sim;
    if (capture_attr(&sim, ctrl, "sim") < 0)
        goto fail;
    if (!Py_IS_TYPE(sim, &CSimulator_Type)) {
        Py_DECREF(sim);
        PyErr_Format(PyExc_TypeError, "%s requires a compiled Simulator",
                     type->tp_name);
        goto fail;
    }
    self->sim = (CSimulator *)sim;
    self->cqueue = (CEventQueue *)Py_NewRef(self->sim->queue);
    if (capture_attr(&self->name_obj, ctrl, "name") < 0 ||
        capture_attr(&self->node_obj, ctrl, "node_id") < 0 ||
        capture_attr(&self->invalid_state, ctrl, "INVALID") < 0 ||
        capture_attr(&self->shared_state, ctrl, "SHARED") < 0 ||
        capture_attr(&self->modified_state, ctrl, "MODIFIED") < 0 ||
        capture_attr(&self->writable, ctrl, "WRITABLE") < 0 ||
        capture_attr(&self->txn_ids, ctrl, "_txn_ids") < 0 ||
        capture_attr(&self->cache, ctrl, "cache") < 0 ||
        capture_attr(&self->may_issue, ctrl, "may_issue") < 0 ||
        capture_attr(&self->on_retire, ctrl, "on_retire") < 0 ||
        capture_attr(&self->counters_dict, ctrl, "_counters") < 0 ||
        capture_attr(&self->count_meth, ctrl, "count") < 0 ||
        capture_attr(&self->complete_cb, ctrl, "_complete_current") < 0 ||
        capture_attr(&self->pure_issue, ctrl, "_issue_transaction") < 0 ||
        capture_attr(&self->retry_meth, ctrl, "_retry_issue") < 0 ||
        capture_attr(&self->pure_install, ctrl, "_install_line") < 0 ||
        capture_attr(&self->finish_meth, ctrl, "_finish") < 0 ||
        capture_attr(&self->timeout_meth, ctrl, "_transaction_timeout") < 0 ||
        capture_attr(&self->l2_sets, self->cache, "_sets") < 0 ||
        capture_attr(&self->observer, self->cache, "_observer") < 0)
        goto fail;
    if (!PyTuple_Check(self->writable)) {
        PyErr_SetString(PyExc_TypeError, "WRITABLE must be a tuple");
        goto fail;
    }
    if (!PyIter_Check(self->txn_ids)) {
        PyErr_SetString(PyExc_TypeError, "_txn_ids must be an iterator");
        goto fail;
    }
    if (!PyDict_Check(self->counters_dict)) {
        PyErr_SetString(PyExc_TypeError, "_counters must be a dict");
        goto fail;
    }
    if (!PyList_Check(self->l2_sets)) {
        PyErr_SetString(PyExc_TypeError, "_sets must be a list");
        goto fail;
    }
    if (getattrstr_ll(self->cache, "_block_bytes", &self->l2_block) < 0 ||
        getattrstr_ll(self->cache, "_num_sets", &self->l2_nsets) < 0)
        goto fail;
    if (self->l2_block <= 0 || self->l2_nsets <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "cache geometry must be positive");
        goto fail;
    }

    PyObject *config = PyObject_GetAttrString(ctrl, "config");
    if (config == NULL)
        goto fail;
    PyObject *l2cfg = PyObject_GetAttrString(config, "l2");
    if (l2cfg == NULL) {
        Py_DECREF(config);
        goto fail;
    }
    int rc = getattrstr_ll(l2cfg, "associativity", &self->assoc);
    Py_DECREF(l2cfg);
    if (rc < 0) {
        Py_DECREF(config);
        goto fail;
    }
    PyObject *pcfg = PyObject_GetAttrString(config, "processor");
    Py_DECREF(config);
    if (pcfg == NULL)
        goto fail;
    rc = getattrstr_ll(pcfg, "l2_hit_cycles", &self->l2_hit_cycles);
    Py_DECREF(pcfg);
    if (rc < 0)
        goto fail;
    self->l2_hit_obj = PyLong_FromLongLong(self->l2_hit_cycles);
    if (self->l2_hit_obj == NULL)
        goto fail;
    self->zero_obj = PyLong_FromLong(0);
    if (self->zero_obj == NULL)
        goto fail;

    CFinishThunk *ft = PyObject_GC_New(CFinishThunk, &CFinishThunk_Type);
    if (ft == NULL)
        goto fail;
    ft->request = NULL;
    ft->cb = NULL;
    ft->core = (CCtrlCore *)Py_NewRef(self);
    PyObject_GC_Track((PyObject *)ft);
    self->finish_thunk = (PyObject *)ft;

    CTimeoutThunk *tt = PyObject_GC_New(CTimeoutThunk, &CTimeoutThunk_Type);
    if (tt == NULL)
        goto fail;
    tt->txn = NULL;
    tt->core = (CCtrlCore *)Py_NewRef(self);
    PyObject_GC_Track((PyObject *)tt);
    self->timeout_thunk = (PyObject *)tt;
    return self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* The L2 set holding `addr` (borrowed). */
static inline PyObject *
ctrl_set_for(CCtrlCore *self, long long addr)
{
    return PyList_GET_ITEM(
        self->l2_sets, (Py_ssize_t)((addr / self->l2_block) % self->l2_nsets));
}

/* _finish(request, on_complete, l2_hit_cycles): arm the reusable thunk
 * (fall back to the pure method if it is somehow busy). */
static int
ctrl_finish(CCtrlCore *self, PyObject *request, PyObject *on_complete)
{
    CFinishThunk *ft = (CFinishThunk *)self->finish_thunk;
    if (ft->request != NULL) {
        PyObject *res = PyObject_CallFunctionObjArgs(
            self->finish_meth, request, on_complete, self->l2_hit_obj, NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    Py_INCREF(request);
    ft->request = request;
    Py_INCREF(on_complete);
    ft->cb = on_complete;
    PyObject *ev = queue_push_internal(self->cqueue,
                                       self->sim->now + self->l2_hit_cycles,
                                       0, (PyObject *)ft, self->name_obj);
    if (ev == NULL)
        return -1;
    Py_DECREF(ev);
    return 0;
}

/* _issue_transaction fast path.  Caller guarantees ctrl.transaction is
 * None (it routes to the pure method otherwise, which raises). */
static int
ctrl_issue(CCtrlCore *self, PyObject *request, PyObject *on_complete,
           PyObject *addr_obj, long long addr, int is_load)
{
    PyObject *gate = PyObject_CallOneArg(self->may_issue, self->node_obj);
    if (gate == NULL)
        return -1;
    int allowed = PyObject_IsTrue(gate);
    Py_DECREF(gate);
    if (allowed < 0)
        return -1;
    if (!allowed) {
        PyObject *res = PyObject_CallFunctionObjArgs(
            self->retry_meth, request, on_complete, NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    PyObject *now_obj = PyLong_FromLongLong(self->sim->now);
    if (now_obj == NULL)
        return -1;
    PyObject *op = PyObject_GetAttr(request, TS.op);
    if (op == NULL) {
        Py_DECREF(now_obj);
        return -1;
    }
    PyObject *id_obj = next_txn_id(self->txn_ids);
    PyObject *txn = id_obj == NULL ? NULL : PyObject_CallFunctionObjArgs(
        self->txn_cls, self->node_obj, addr_obj, op, now_obj, id_obj, NULL);
    Py_XDECREF(id_obj);
    Py_DECREF(op);
    Py_DECREF(now_obj);
    if (txn == NULL)
        return -1;
    if (PyObject_SetAttr(self->ctrl, TS.pending_request, request) < 0 ||
        PyObject_SetAttr(self->ctrl, TS.pending_on_complete,
                         on_complete) < 0 ||
        PyObject_SetAttr(txn, TS.on_complete_attr, self->complete_cb) < 0 ||
        PyObject_SetAttr(self->ctrl, TS.transaction, txn) < 0)
        goto fail;

    PyObject *tc = PyObject_GetAttr(self->ctrl, TS.timeout_cycles);
    if (tc == NULL)
        goto fail;
    if (tc != Py_None) {
        long long cycles = PyLong_AsLongLong(tc);
        Py_DECREF(tc);
        if (cycles == -1 && PyErr_Occurred())
            goto fail;
        CTimeoutThunk *tt = (CTimeoutThunk *)self->timeout_thunk;
        Py_INCREF(txn);
        Py_XSETREF(tt->txn, txn);
        PyObject *ev = queue_push_internal(self->cqueue,
                                           self->sim->now + cycles, 0,
                                           (PyObject *)tt, self->name_obj);
        if (ev == NULL)
            goto fail;
        int rc = PyObject_SetAttr(txn, TS.timeout_event, ev);
        Py_DECREF(ev);
        if (rc < 0)
            goto fail;
    }
    else
        Py_DECREF(tc);

    if (self->request(self, txn, addr_obj, addr, is_load) < 0 ||
        comp_count(self->counters_dict, self->count_meth,
                   TS.transactions_issued) < 0)
        goto fail;
    Py_DECREF(txn);
    return 0;

fail:
    Py_DECREF(txn);
    return -1;
}

/* _allocate_line into `set`, which lacks `addr_obj`: a full set goes to
 * the pure _install_line(txn, value) (victim choice, eviction, retry);
 * otherwise CacheArray.allocate of a fresh `target` line (0 when `value`
 * is None). */
static int
ctrl_allocate(CCtrlCore *self, PyObject *set, PyObject *txn,
              PyObject *value, PyObject *addr_obj, PyObject *target)
{
    if (PyDict_GET_SIZE(set) >= (Py_ssize_t)self->assoc) {
        PyObject *res = PyObject_CallFunctionObjArgs(
            self->pure_install, txn, value, NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    PyObject *install_value = (value != Py_None) ? value : self->zero_obj;
    long long tick;
    if (getattr_ll(self->cache, TS.tick, &tick) < 0)
        return -1;
    tick += 1;
    if (setattr_ll(self->cache, TS.tick, tick) < 0)
        return -1;
    PyObject *tick_obj = PyLong_FromLongLong(tick);
    if (tick_obj == NULL)
        return -1;
    PyObject *line = PyObject_CallFunctionObjArgs(
        self->line_cls, addr_obj, target, install_value, tick_obj, NULL);
    Py_DECREF(tick_obj);
    if (line == NULL)
        return -1;
    int rc = PyDict_SetItem(set, addr_obj, line);
    Py_DECREF(line);
    if (rc < 0)
        return -1;
    if (txn_notify(self->observer, addr_obj, PS.state, self->invalid_state,
                   target) < 0)
        return -1;
    return txn_notify(self->observer, addr_obj, S.value, Py_None,
                      install_value);
}

/* _complete_current: retire the controller's single outstanding
 * transaction and hand its request back to the processor. */
static int
ctrl_complete(CCtrlCore *self, PyObject *txn)
{
    PyObject *request = PyObject_GetAttr(self->ctrl, TS.pending_request);
    if (request == NULL)
        return -1;
    PyObject *oc = PyObject_GetAttr(self->ctrl, TS.pending_on_complete);
    if (oc == NULL) {
        Py_DECREF(request);
        return -1;
    }
    PyObject *taddr_obj = NULL;
    if (PyObject_SetAttr(self->ctrl, TS.transaction, Py_None) < 0)
        goto fail;
    PyObject *res = PyObject_CallOneArg(self->on_retire, self->node_obj);
    if (res == NULL)
        goto fail;
    Py_DECREF(res);
    taddr_obj = PyObject_GetAttr(txn, PS.address);
    if (taddr_obj == NULL)
        goto fail;
    long long taddr = PyLong_AsLongLong(taddr_obj);
    if (taddr == -1 && PyErr_Occurred())
        goto fail;
    if (self->done != NULL && self->done(self, txn, taddr_obj, taddr) < 0)
        goto fail;
    if (comp_count(self->counters_dict, self->count_meth,
                   TS.transactions_completed) < 0)
        goto fail;
    PyObject *set = ctrl_set_for(self, taddr);
    PyObject *line = PyDict_GetItemWithError(set, taddr_obj);
    if (line == NULL && PyErr_Occurred())
        goto fail;
    PyObject *req_op = PyObject_GetAttr(request, TS.op);
    if (req_op == NULL)
        goto fail;
    int is_store = (req_op == self->store_op);
    Py_DECREF(req_op);
    if (is_store) {
        /* Apply the store's value now that the block is writable here. */
        if (line != NULL) {
            PyObject *rvalue = PyObject_GetAttr(request, S.value);
            if (rvalue == NULL)
                goto fail;
            int rc = (rvalue == Py_None) ? 0 :
                txn_set_value(self->observer, line, taddr_obj, rvalue);
            Py_DECREF(rvalue);
            if (rc < 0)
                goto fail;
        }
    }
    else {
        PyObject *lvalue = NULL;
        if (line != NULL) {
            lvalue = PyObject_GetAttr(line, S.value);
            if (lvalue == NULL)
                goto fail;
        }
        if (lvalue == NULL || lvalue == Py_None) {
            /* Late-invalidated load (snooping): the data satisfied the
             * load but the line was not retained. */
            Py_XDECREF(lvalue);
            lvalue = PyObject_GetAttr(txn, TS.value_hint);
            if (lvalue == NULL)
                goto fail;
        }
        int rc = PyObject_SetAttr(request, S.value, lvalue);
        Py_DECREF(lvalue);
        if (rc < 0)
            goto fail;
    }
    if (setattr_ll(request, TS.completed_at, self->sim->now) < 0)
        goto fail;
    res = PyObject_CallOneArg(oc, request);
    Py_DECREF(taddr_obj);
    Py_DECREF(oc);
    Py_DECREF(request);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;

fail:
    Py_XDECREF(taddr_obj);
    Py_DECREF(oc);
    Py_DECREF(request);
    return -1;
}

/* Transaction.complete(): mark it complete, cancel its timeout and run its
 * on_complete, the shared completion when it is our own callback. */
static int
ctrl_txn_complete(CCtrlCore *self, PyObject *txn)
{
    PyObject *tmp = PyObject_GetAttr(txn, TS.completed);
    if (tmp == NULL)
        return -1;
    int done = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (done != 0)
        return done < 0 ? -1 : 0;
    if (PyObject_SetAttr(txn, TS.completed, Py_True) < 0)
        return -1;
    PyObject *te = PyObject_GetAttr(txn, TS.timeout_event);
    if (te == NULL)
        return -1;
    if (te != Py_None) {
        PyObject *res = PyObject_CallMethodNoArgs(te, TS.cancel);
        Py_DECREF(te);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        if (PyObject_SetAttr(txn, TS.timeout_event, Py_None) < 0)
            return -1;
    }
    else
        Py_DECREF(te);
    PyObject *oc = PyObject_GetAttr(txn, TS.on_complete_attr);
    if (oc == NULL)
        return -1;
    if (oc == Py_None) {
        Py_DECREF(oc);
        return 0;
    }
    if (oc == self->complete_cb) {
        Py_DECREF(oc);
        return ctrl_complete(self, txn);
    }
    /* A transaction issued by the pure path (slow-start retry) completes
     * through its own bound _complete_current. */
    PyObject *res = PyObject_CallOneArg(oc, txn);
    Py_DECREF(oc);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* access(request, on_complete): both cores' processor-facing entry. */
static PyObject *
CtrlCore_access(CCtrlCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "access() takes exactly 2 arguments");
        return NULL;
    }
    PyObject *request = args[0];
    PyObject *on_complete = args[1];
    if (setattr_ll(request, PS.issued_at, self->sim->now) < 0)
        return NULL;
    PyObject *addr_obj = PyObject_GetAttr(request, PS.address);
    if (addr_obj == NULL)
        return NULL;
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred())
        goto fail_addr;
    /* CacheArray.lookup: probe + LRU touch when the line is present. */
    PyObject *line = PyDict_GetItemWithError(ctrl_set_for(self, addr),
                                             addr_obj);
    if (line == NULL && PyErr_Occurred())
        goto fail_addr;
    PyObject *state;
    if (line != NULL) {
        long long tick;
        if (getattr_ll(self->cache, TS.tick, &tick) < 0)
            goto fail_addr;
        tick += 1;
        if (setattr_ll(self->cache, TS.tick, tick) < 0 ||
            setattr_ll(line, TS.last_used, tick) < 0)
            goto fail_addr;
        state = PyObject_GetAttr(line, PS.state);
        if (state == NULL)
            goto fail_addr;
    }
    else {
        state = self->invalid_state;
        Py_INCREF(state);
    }
    PyObject *op = PyObject_GetAttr(request, TS.op);
    if (op == NULL) {
        Py_DECREF(state);
        goto fail_addr;
    }
    int is_load = (op == self->load_op);
    Py_DECREF(op);

    if (is_load && state != self->invalid_state) {
        Py_DECREF(state);
        if (addattr_ll(self->cache, PS.hits, 1) < 0 ||
            comp_count(self->counters_dict, self->count_meth,
                       TS.load_hits) < 0)
            goto fail_addr;
        PyObject *lvalue = PyObject_GetAttr(line, S.value);
        if (lvalue == NULL)
            goto fail_addr;
        int rc = PyObject_SetAttr(request, S.value, lvalue);
        Py_DECREF(lvalue);
        if (rc < 0 || ctrl_finish(self, request, on_complete) < 0)
            goto fail_addr;
        Py_DECREF(addr_obj);
        Py_RETURN_NONE;
    }
    int writable = 0;
    for (Py_ssize_t i = 0; !is_load && i < PyTuple_GET_SIZE(self->writable);
         i++)
        writable |= (state == PyTuple_GET_ITEM(self->writable, i));
    if (writable) {
        /* Store hit; a writable state other than Modified upgrades. */
        int rc = addattr_ll(self->cache, PS.hits, 1);
        if (rc == 0)
            rc = comp_count(self->counters_dict, self->count_meth,
                            TS.store_hits);
        if (rc == 0 && state != self->modified_state)
            rc = txn_set_state(self->observer, line, addr_obj,
                               self->modified_state);
        Py_DECREF(state);
        if (rc < 0)
            goto fail_addr;
        PyObject *rvalue = PyObject_GetAttr(request, S.value);
        if (rvalue == NULL)
            goto fail_addr;
        rc = txn_set_value(self->observer, line, addr_obj, rvalue);
        Py_DECREF(rvalue);
        if (rc < 0 || ctrl_finish(self, request, on_complete) < 0)
            goto fail_addr;
        Py_DECREF(addr_obj);
        Py_RETURN_NONE;
    }
    Py_DECREF(state);

    /* Miss (or upgrade): issue a coherence transaction. */
    if (addattr_ll(self->cache, TS.misses, 1) < 0 ||
        comp_count(self->counters_dict, self->count_meth,
                   is_load ? TS.load_misses : TS.store_misses) < 0)
        goto fail_addr;
    PyObject *txn = PyObject_GetAttr(self->ctrl, TS.transaction);
    if (txn == NULL)
        goto fail_addr;
    int busy = (txn != Py_None);
    Py_DECREF(txn);
    if (busy) {
        /* The pure method raises the "second reference" error. */
        PyObject *res = PyObject_CallFunctionObjArgs(
            self->pure_issue, request, on_complete, NULL);
        if (res == NULL)
            goto fail_addr;
        Py_DECREF(res);
    }
    else if (ctrl_issue(self, request, on_complete, addr_obj, addr,
                        is_load) < 0)
        goto fail_addr;
    Py_DECREF(addr_obj);
    Py_RETURN_NONE;

fail_addr:
    Py_DECREF(addr_obj);
    return NULL;
}

/* The outstanding transaction if it is live for `address`: 1 with a new
 * reference in *out, 0 when it is absent, elsewhere or completed, -1 on
 * error. */
static int
ctrl_live_txn(CCtrlCore *self, PyObject *address, PyObject **out)
{
    PyObject *txn = PyObject_GetAttr(self->ctrl, TS.transaction);
    if (txn == NULL)
        return -1;
    int dead = (txn == Py_None);
    if (!dead) {
        PyObject *taddr = PyObject_GetAttr(txn, PS.address);
        dead = taddr == NULL ? -1
                             : PyObject_RichCompareBool(taddr, address, Py_NE);
        Py_XDECREF(taddr);
    }
    if (dead == 0) {
        PyObject *tmp = PyObject_GetAttr(txn, TS.completed);
        dead = tmp == NULL ? -1 : PyObject_IsTrue(tmp);
        Py_XDECREF(tmp);
    }
    if (dead != 0) {
        Py_DECREF(txn);
        return dead < 0 ? -1 : 0;
    }
    *out = txn;
    return 1;
}

/* The data-arrival prologue both protocols share: 1 with the live
 * transaction in *out (new reference) and its data_received set, 0 after
 * counting a stale or duplicate delivery, -1 on error. */
static int
ctrl_data_txn(CCtrlCore *self, PyObject *address, PyObject *stale_name,
              PyObject *duplicate_name, PyObject **out)
{
    PyObject *txn;
    int live = ctrl_live_txn(self, address, &txn);
    if (live <= 0)
        return live < 0 ? -1 : comp_count(self->counters_dict,
                                          self->count_meth, stale_name);
    PyObject *tmp = PyObject_GetAttr(txn, TS.data_received);
    int dup = tmp == NULL ? -1 : PyObject_IsTrue(tmp);
    Py_XDECREF(tmp);
    if (dup == 0 && PyObject_SetAttr(txn, TS.data_received, Py_True) == 0) {
        *out = txn;
        return 1;
    }
    Py_DECREF(txn);
    if (dup <= 0)
        return -1;
    return comp_count(self->counters_dict, self->count_meth, duplicate_name);
}

/* ----------------------------------------------------- TransactionCore */

/* Compiled DirectoryCacheController: the shared lifecycle above plus the
 * DATA/ACK response handlers (install + completion).  Ports of the pure
 * methods in repro.coherence.directory.cache_controller; forwarded
 * requests, nacks and writebacks stay pure. */
typedef struct {
    CCtrlCore base;
    long long num_nodes, home_block;
    PyObject *cls_req_ro, *cls_req_rw, *cls_final;
    PyObject *payload_cls;
    PyObject *send;             /* ctrl.send (post-rebind MessageSendCore) */
    PyObject *hist_meth;        /* bound ctrl.stats.histogram */
    PyObject *hist_args;        /* ("l2.miss_latency",) */
    PyObject *hist_kwargs;      /* {"bucket_width": 64} */
} CTxnCore;

static int
TxnCore_traverse(CTxnCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->cls_req_ro);
    Py_VISIT(self->cls_req_rw);
    Py_VISIT(self->cls_final);
    Py_VISIT(self->payload_cls);
    Py_VISIT(self->send);
    Py_VISIT(self->hist_meth);
    Py_VISIT(self->hist_args);
    Py_VISIT(self->hist_kwargs);
    return ctrl_traverse(&self->base, visit, arg);
}

static int
TxnCore_clear_gc(CTxnCore *self)
{
    Py_CLEAR(self->cls_req_ro);
    Py_CLEAR(self->cls_req_rw);
    Py_CLEAR(self->cls_final);
    Py_CLEAR(self->payload_cls);
    Py_CLEAR(self->send);
    Py_CLEAR(self->hist_meth);
    Py_CLEAR(self->hist_args);
    Py_CLEAR(self->hist_kwargs);
    return ctrl_clear(&self->base);
}

/* send(home(addr), msg_class, addr, CoherencePayload(node, txn_id=...)). */
static int
txn_send_home(CTxnCore *self, PyObject *msg_class, PyObject *txn,
              PyObject *addr_obj, long long addr)
{
    PyObject *txn_id = PyObject_GetAttr(txn, TS.txn_id);
    if (txn_id == NULL)
        return -1;
    PyObject *payload = PyObject_CallFunctionObjArgs(
        self->payload_cls, self->base.node_obj, self->base.zero_obj, Py_None,
        txn_id, NULL);
    Py_DECREF(txn_id);
    if (payload == NULL)
        return -1;
    PyObject *home = PyLong_FromLongLong(
        (addr / self->home_block) % self->num_nodes);
    if (home == NULL) {
        Py_DECREF(payload);
        return -1;
    }
    PyObject *res = PyObject_CallFunctionObjArgs(self->send, home, msg_class,
                                                 addr_obj, payload, NULL);
    Py_DECREF(home);
    Py_DECREF(payload);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* _request: RequestReadOnly/ReadWrite to the block's home directory. */
static int
txn_request(CCtrlCore *core, PyObject *txn, PyObject *addr_obj,
            long long addr, int is_load)
{
    CTxnCore *self = (CTxnCore *)core;
    return txn_send_home(self, is_load ? self->cls_req_ro : self->cls_req_rw,
                         txn, addr_obj, addr);
}

/* _transaction_done: the FinalAck that unblocks the directory, and the
 * miss-latency histogram. */
static int
txn_done(CCtrlCore *core, PyObject *txn, PyObject *taddr_obj,
         long long taddr)
{
    CTxnCore *self = (CTxnCore *)core;
    if (txn_send_home(self, self->cls_final, txn, taddr_obj, taddr) < 0)
        return -1;
    PyObject *hist = PyObject_GetAttr(core->ctrl, TS.miss_hist);
    if (hist == NULL)
        return -1;
    if (hist == Py_None) {
        Py_DECREF(hist);
        hist = PyObject_Call(self->hist_meth, self->hist_args,
                             self->hist_kwargs);
        if (hist == NULL)
            return -1;
        if (PyObject_SetAttr(core->ctrl, TS.miss_hist, hist) < 0) {
            Py_DECREF(hist);
            return -1;
        }
    }
    long long started;
    int rc = getattr_ll(txn, TS.started_at, &started);
    if (rc == 0)
        rc = hist_record_ll(hist, core->sim->now - started);
    Py_DECREF(hist);
    return rc;
}

static PyObject *
TxnCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *ctrl, *load_op, *store_op, *cls_req_ro, *cls_req_rw,
        *cls_final, *payload_cls, *txn_cls, *line_cls;
    long long num_nodes, home_block;
    if (!PyArg_ParseTuple(args, "OLLOOOOOOOO", &ctrl, &num_nodes,
                          &home_block, &load_op, &store_op, &cls_req_ro,
                          &cls_req_rw, &cls_final, &payload_cls, &txn_cls,
                          &line_cls))
        return NULL;
    if (num_nodes <= 0 || home_block <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "node count and block size must be positive");
        return NULL;
    }
    CTxnCore *self = (CTxnCore *)ctrl_new(type, kwds, ctrl, load_op,
                                          store_op, txn_cls, line_cls);
    if (self == NULL)
        return NULL;
    self->base.request = txn_request;
    self->base.done = txn_done;
    self->num_nodes = num_nodes;
    self->home_block = home_block;
    self->cls_req_ro = Py_NewRef(cls_req_ro);
    self->cls_req_rw = Py_NewRef(cls_req_rw);
    self->cls_final = Py_NewRef(cls_final);
    self->payload_cls = Py_NewRef(payload_cls);
    if (capture_attr(&self->send, ctrl, "send") < 0)
        goto fail;
    PyObject *stats = PyObject_GetAttrString(ctrl, "stats");
    if (stats == NULL)
        goto fail;
    self->hist_meth = PyObject_GetAttrString(stats, "histogram");
    Py_DECREF(stats);
    if (self->hist_meth == NULL)
        goto fail;
    self->hist_args = Py_BuildValue("(s)", "l2.miss_latency");
    if (self->hist_args == NULL)
        goto fail;
    self->hist_kwargs = Py_BuildValue("{s:i}", "bucket_width", 64);
    if (self->hist_kwargs == NULL)
        goto fail;
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* _install_line fast path: upgrade in place (keeping our own data when
 * DATA carries None), else allocate. */
static int
txn_install_line(CTxnCore *self, PyObject *txn, PyObject *value,
                 PyObject *addr_obj, long long addr)
{
    CCtrlCore *core = &self->base;
    PyObject *op = PyObject_GetAttr(txn, TS.op);
    if (op == NULL)
        return -1;
    PyObject *target = (op == core->load_op) ? core->shared_state
                                             : core->modified_state;
    Py_DECREF(op);
    PyObject *set = ctrl_set_for(core, addr);
    PyObject *existing = PyDict_GetItemWithError(set, addr_obj);
    if (existing == NULL && PyErr_Occurred())
        return -1;
    if (existing == NULL)
        return ctrl_allocate(core, set, txn, value, addr_obj, target);
    if (txn_set_state(core->observer, existing, addr_obj, target) < 0)
        return -1;
    if (value != Py_None &&
        txn_set_value(core->observer, existing, addr_obj, value) < 0)
        return -1;
    return 0;
}

/* _maybe_complete: complete once the data and every ack are in. */
static int
txn_maybe_complete(CTxnCore *self, PyObject *txn)
{
    PyObject *tmp = PyObject_GetAttr(txn, TS.data_received);
    if (tmp == NULL)
        return -1;
    int data = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (data <= 0)
        return data;
    long long got, need;
    if (getattr_ll(txn, TS.acks_received, &got) < 0 ||
        getattr_ll(txn, TS.acks_needed, &need) < 0)
        return -1;
    if (got < need)
        return 0;
    return ctrl_txn_complete(&self->base, txn);
}

/* handle_data(address, payload) */
static PyObject *
TxnCore_handle_data(CTxnCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "handle_data() takes exactly 2 arguments");
        return NULL;
    }
    PyObject *address = args[0];
    PyObject *payload = args[1];
    PyObject *txn;
    int live = ctrl_data_txn(&self->base, address, TS.stale_data,
                             TS.duplicate_data, &txn);
    if (live < 0)
        return NULL;
    if (live == 0)
        Py_RETURN_NONE;
    long long needed, expected;
    if (getattr_ll(txn, TS.acks_needed, &needed) < 0 ||
        getattr_ll(payload, TS.acks_expected, &expected) < 0)
        goto fail;
    if (setattr_ll(txn, TS.acks_needed,
                   expected > needed ? expected : needed) < 0)
        goto fail;
    PyObject *value = PyObject_GetAttr(payload, S.value);
    if (value == NULL)
        goto fail;
    long long addr = PyLong_AsLongLong(address);
    if (addr == -1 && PyErr_Occurred()) {
        Py_DECREF(value);
        goto fail;
    }
    int rc = txn_install_line(self, txn, value, address, addr);
    Py_DECREF(value);
    if (rc < 0 || txn_maybe_complete(self, txn) < 0)
        goto fail;
    Py_DECREF(txn);
    Py_RETURN_NONE;

fail:
    Py_DECREF(txn);
    return NULL;
}

/* handle_ack(address, payload) */
static PyObject *
TxnCore_handle_ack(CTxnCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "handle_ack() takes exactly 2 arguments");
        return NULL;
    }
    PyObject *txn;
    int live = ctrl_live_txn(&self->base, args[0], &txn);
    if (live < 0)
        return NULL;
    if (live == 0) {
        if (comp_count(self->base.counters_dict, self->base.count_meth,
                       TS.stale_acks) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    int rc = addattr_ll(txn, TS.acks_received, 1);
    if (rc == 0)
        rc = txn_maybe_complete(self, txn);
    Py_DECREF(txn);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef TxnCore_methods[] = {
    {"access", (PyCFunction)(void (*)(void))CtrlCore_access,
     METH_FASTCALL, "Compiled BlockingCacheController.access."},
    {"handle_data", (PyCFunction)(void (*)(void))TxnCore_handle_data,
     METH_FASTCALL, "Compiled DirectoryCacheController._handle_data."},
    {"handle_ack", (PyCFunction)(void (*)(void))TxnCore_handle_ack,
     METH_FASTCALL, "Compiled DirectoryCacheController._handle_ack."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CTxnCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.TransactionCore",
    .tp_basicsize = sizeof(CTxnCore),
    .tp_dealloc = (destructor)ctrl_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled directory cache-controller transaction path "
              "(access + DATA/ACK handlers).",
    .tp_traverse = (traverseproc)TxnCore_traverse,
    .tp_clear = (inquiry)TxnCore_clear_gc,
    .tp_methods = TxnCore_methods,
    .tp_new = TxnCore_new,
};

/* -------------------------------------------------- MemoryCompleteCore */

/* Compiled BlockingProcessor._memory_complete: retire accounting, the
 * shared latency histogram, the L1 tag fill and the next-issue schedule.
 * Holds the node's ProcessorCore for the gap-draw fields and the shared
 * _issue_pending scheduling helper. */
typedef struct {
    PyObject_HEAD
    PyObject *proc;
    CProcCore *pc;              /* strong */
    PyObject *valid_state;      /* L1State.VALID */
    PyObject *line_cls;
    PyObject *l1_tags, *l1_sets;
    long long l1_block, l1_nsets, l1_assoc;
    int use_pure_fill;          /* observer installed: keep the pure fill */
    PyObject *fill_meth;        /* bound l1.fill */
    PyObject *counters_dict, *count_meth;
    PyObject *hist_meth, *hist_args, *hist_kwargs;
} CMemCore;

static int
MemCore_traverse(CMemCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->proc);
    Py_VISIT(self->pc);
    Py_VISIT(self->valid_state);
    Py_VISIT(self->line_cls);
    Py_VISIT(self->l1_tags);
    Py_VISIT(self->l1_sets);
    Py_VISIT(self->fill_meth);
    Py_VISIT(self->counters_dict);
    Py_VISIT(self->count_meth);
    Py_VISIT(self->hist_meth);
    Py_VISIT(self->hist_args);
    Py_VISIT(self->hist_kwargs);
    return 0;
}

static int
MemCore_clear_gc(CMemCore *self)
{
    Py_CLEAR(self->proc);
    Py_CLEAR(self->pc);
    Py_CLEAR(self->valid_state);
    Py_CLEAR(self->line_cls);
    Py_CLEAR(self->l1_tags);
    Py_CLEAR(self->l1_sets);
    Py_CLEAR(self->fill_meth);
    Py_CLEAR(self->counters_dict);
    Py_CLEAR(self->count_meth);
    Py_CLEAR(self->hist_meth);
    Py_CLEAR(self->hist_args);
    Py_CLEAR(self->hist_kwargs);
    return 0;
}

static void
MemCore_dealloc(CMemCore *self)
{
    PyObject_GC_UnTrack(self);
    MemCore_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
MemCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *proc, *valid_state, *line_cls;
    CProcCore *pc;
    if (!PyArg_ParseTuple(args, "OO!OO", &proc, &CProcCore_Type, &pc,
                          &valid_state, &line_cls))
        return NULL;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError,
                        "MemoryCompleteCore() takes no kwargs");
        return NULL;
    }
    CMemCore *self = PyObject_GC_New(CMemCore, &CMemCore_Type);
    if (self == NULL)
        return NULL;
    memset(((char *)self) + sizeof(PyObject), 0,
           sizeof(CMemCore) - sizeof(PyObject));
    PyObject_GC_Track((PyObject *)self);

    Py_INCREF(proc);
    self->proc = proc;
    Py_INCREF(pc);
    self->pc = pc;
    Py_INCREF(valid_state);
    self->valid_state = valid_state;
    Py_INCREF(line_cls);
    self->line_cls = line_cls;

    PyObject *l1 = PyObject_GetAttrString(proc, "l1");
    if (l1 == NULL)
        goto fail;
    if (l1 == Py_None) {
        Py_DECREF(l1);
        PyErr_SetString(PyExc_TypeError,
                        "MemoryCompleteCore requires an L1 filter cache");
        goto fail;
    }
    self->l1_tags = PyObject_GetAttrString(l1, "tags");
    if (self->l1_tags == NULL) {
        Py_DECREF(l1);
        goto fail;
    }
    self->fill_meth = PyObject_GetAttrString(l1, "fill");
    Py_DECREF(l1);
    if (self->fill_meth == NULL)
        goto fail;
    self->l1_sets = PyObject_GetAttrString(self->l1_tags, "_sets");
    if (self->l1_sets == NULL || !PyList_Check(self->l1_sets)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_sets must be a list");
        goto fail;
    }
    if (getattrstr_ll(self->l1_tags, "_block_bytes", &self->l1_block) < 0 ||
        getattrstr_ll(self->l1_tags, "_num_sets", &self->l1_nsets) < 0)
        goto fail;
    if (self->l1_block <= 0 || self->l1_nsets <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "cache geometry must be positive");
        goto fail;
    }
    PyObject *cfg = PyObject_GetAttrString(self->l1_tags, "config");
    if (cfg == NULL)
        goto fail;
    int rc = getattrstr_ll(cfg, "associativity", &self->l1_assoc);
    Py_DECREF(cfg);
    if (rc < 0)
        goto fail;
    PyObject *obs = PyObject_GetAttrString(self->l1_tags, "_observer");
    if (obs == NULL)
        goto fail;
    self->use_pure_fill = (obs != Py_None);
    Py_DECREF(obs);

    self->counters_dict = PyObject_GetAttrString(proc, "_counters");
    if (self->counters_dict == NULL || !PyDict_Check(self->counters_dict)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_counters must be a dict");
        goto fail;
    }
    self->count_meth = PyObject_GetAttrString(proc, "count");
    if (self->count_meth == NULL)
        goto fail;
    PyObject *stats = PyObject_GetAttrString(proc, "stats");
    if (stats == NULL)
        goto fail;
    self->hist_meth = PyObject_GetAttrString(stats, "histogram");
    Py_DECREF(stats);
    if (self->hist_meth == NULL)
        goto fail;
    self->hist_args = Py_BuildValue("(s)", "proc.mem_latency");
    if (self->hist_args == NULL)
        goto fail;
    self->hist_kwargs = Py_BuildValue("{s:i}", "bucket_width", 64);
    if (self->hist_kwargs == NULL)
        goto fail;
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* L1FilterCache.fill: tags.allocate(address, VALID) with no observer. */
static int
memcore_l1_fill(CMemCore *self, PyObject *addr_obj, long long addr)
{
    PyObject *set = PyList_GET_ITEM(
        self->l1_sets, (Py_ssize_t)((addr / self->l1_block) % self->l1_nsets));
    PyObject *existing = PyDict_GetItemWithError(set, addr_obj);
    if (existing == NULL && PyErr_Occurred())
        return -1;
    if (existing != NULL)
        return PyObject_SetAttr(existing, PS.state, self->valid_state);
    if (PyDict_GET_SIZE(set) >= (Py_ssize_t)self->l1_assoc) {
        /* LRU victim: first strict minimum in insertion order, exactly
         * like min() over the dict's values. */
        PyObject *victim = NULL;
        long long best = 0;
        Py_ssize_t pos = 0;
        PyObject *key, *line;
        while (PyDict_Next(set, &pos, &key, &line)) {
            long long used;
            if (getattr_ll(line, TS.last_used, &used) < 0)
                return -1;
            if (victim == NULL || used < best) {
                victim = line;
                best = used;
            }
        }
        if (victim == NULL) {
            PyErr_SetString(PyExc_RuntimeError, "full set with no lines");
            return -1;
        }
        PyObject *vaddr = PyObject_GetAttr(victim, PS.address);
        if (vaddr == NULL)
            return -1;
        int rc = PyDict_DelItem(set, vaddr);
        Py_DECREF(vaddr);
        if (rc < 0)
            return -1;
        if (addattr_ll(self->l1_tags, TS.evictions, 1) < 0)
            return -1;
    }
    long long tick;
    if (getattr_ll(self->l1_tags, TS.tick, &tick) < 0)
        return -1;
    tick += 1;
    if (setattr_ll(self->l1_tags, TS.tick, tick) < 0)
        return -1;
    PyObject *tick_obj = PyLong_FromLongLong(tick);
    if (tick_obj == NULL)
        return -1;
    PyObject *line = PyObject_CallFunctionObjArgs(
        self->line_cls, addr_obj, self->valid_state, Py_None, tick_obj,
        NULL);
    Py_DECREF(tick_obj);
    if (line == NULL)
        return -1;
    int rc = PyDict_SetItem(set, addr_obj, line);
    Py_DECREF(line);
    return rc;
}

static PyObject *
MemCore_call(CMemCore *self, PyObject *args, PyObject *kwds)
{
    PyObject *request;
    if (!PyArg_ParseTuple(args, "O", &request))
        return NULL;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError,
                        "memory-complete callback takes no kwargs");
        return NULL;
    }
    PyObject *p = self->proc;
    if (PyObject_SetAttr(p, PS.waiting, Py_False) < 0 ||
        addattr_ll(p, PS.references_completed, 1) < 0 ||
        comp_count(self->counters_dict, self->count_meth,
                   TS.memory_references) < 0)
        return NULL;
    PyObject *hist = PyObject_GetAttr(p, TS.mem_hist);
    if (hist == NULL)
        return NULL;
    if (hist == Py_None) {
        Py_DECREF(hist);
        hist = PyObject_Call(self->hist_meth, self->hist_args,
                             self->hist_kwargs);
        if (hist == NULL)
            return NULL;
        if (PyObject_SetAttr(p, TS.mem_hist, hist) < 0) {
            Py_DECREF(hist);
            return NULL;
        }
    }
    long long completed, issued;
    if (getattr_ll(request, TS.completed_at, &completed) < 0 ||
        getattr_ll(request, PS.issued_at, &issued) < 0) {
        Py_DECREF(hist);
        return NULL;
    }
    long long lat = completed - issued;
    if (lat < 0)
        lat = 0;
    int rc = hist_record_ll(hist, lat);
    Py_DECREF(hist);
    if (rc < 0)
        return NULL;
    PyObject *addr_obj = PyObject_GetAttr(request, PS.address);
    if (addr_obj == NULL)
        return NULL;
    if (self->use_pure_fill) {
        PyObject *res = PyObject_CallOneArg(self->fill_meth, addr_obj);
        Py_DECREF(addr_obj);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
    }
    else {
        long long addr = PyLong_AsLongLong(addr_obj);
        if (addr == -1 && PyErr_Occurred()) {
            Py_DECREF(addr_obj);
            return NULL;
        }
        rc = memcore_l1_fill(self, addr_obj, addr);
        Py_DECREF(addr_obj);
        if (rc < 0)
            return NULL;
    }
    /* _compute_gap_cycles + _schedule_issue (via the processor core, so
     * the jitter stream and the _issue_pending collapse stay shared). */
    CProcCore *pc = self->pc;
    long long extra = 0;
    if (pc->jitter > 0) {
        PyObject *r = PyObject_CallFunctionObjArgs(
            pc->randint_meth, PS.gap, pc->zero_obj, pc->gap_hi, NULL);
        if (r == NULL)
            return NULL;
        extra = PyLong_AsLongLong(r);
        Py_DECREF(r);
        if (extra == -1 && PyErr_Occurred())
            return NULL;
    }
    long long gap = pc->gap_base + extra;
    if (gap < 1)
        gap = 1;
    if (proc_schedule(pc, gap) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject CMemCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.MemoryCompleteCore",
    .tp_basicsize = sizeof(CMemCore),
    .tp_dealloc = (destructor)MemCore_dealloc,
    .tp_call = (ternaryfunc)MemCore_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled BlockingProcessor._memory_complete "
              "(installed as the instance attribute).",
    .tp_traverse = (traverseproc)MemCore_traverse,
    .tp_clear = (inquiry)MemCore_clear_gc,
    .tp_new = MemCore_new,
};

/* ------------------------------------------------------------ SnoopCore */

/* Compiled SnoopingCacheController: the shared lifecycle above, the
 * snoop() the bus's snoop filter calls (installed as ctrl.snoop)
 * (own/foreign GETS/GETX/Writeback, including the Section 3.2
 * writeback-race bookkeeping) and the data-network receive_data()
 * install/complete path.  Ports of the pure methods in
 * repro.coherence.snooping.cache_controller; the corner case and
 * pending-forward service stay pure. */

/* Interned attribute names used by the snooping core. */
static struct {
    PyObject *requestor, *rtype, *phase, *record_request, *bus_ordered,
        *invalidate_on_install, *writebacks_ordered, *own_request_ordered,
        *cache_to_cache_transfers, *forwards_deferred, *late_invalidates,
        *writeback_race_first_getx, *stale_data, *duplicate_data;
} SN;

typedef struct {
    CCtrlCore base;
    PyObject *exclusive_state, *owned_state;
    PyObject *gets_type, *getx_type, *wb_type;
    PyObject *waiting_phase, *lost_phase;
    PyObject *busreq_cls;
    long long c2c_cycles;
    PyObject *bus_issue;        /* bus.issue (post-rebind BusCore.issue) */
    PyObject *deliver;          /* ctrl.deliver_data */
    PyObject *writebacks_dict;  /* ctrl.writebacks */
    PyObject *forwards_dict;    /* ctrl._pending_forwards */
    PyObject *passed_set;       /* ctrl._ownership_passed */
    PyObject *corner_meth;      /* bound ctrl._corner_case */
    PyObject *forwards_meth;    /* bound ctrl._process_pending_forwards */
} CSnoopCore;

/* Per-occurrence supply thunk: cache-to-cache deliveries overlap (any
 * number of foreign requests can be in flight), so each carries its own
 * payload. */
typedef struct {
    PyObject_HEAD
    PyObject *deliver;          /* bound system._deliver_data */
    PyObject *dst, *addr, *value;
} CSupplyThunk;

/* Per-occurrence own-upgrade thunk: receive_data(address, value) at +1
 * when our ordered GETS/GETX finds valid local data. */
typedef struct {
    PyObject_HEAD
    CSnoopCore *core;           /* strong */
    PyObject *addr, *value;
} CSnoopRecvThunk;

static int snoop_receive_impl(CSnoopCore *self, PyObject *addr_obj,
                              PyObject *value);

/* ------------------------------------------------------- supply thunk */

static int
Supply_traverse(CSupplyThunk *self, visitproc visit, void *arg)
{
    Py_VISIT(self->deliver);
    Py_VISIT(self->dst);
    Py_VISIT(self->addr);
    Py_VISIT(self->value);
    return 0;
}

static int
Supply_clear_gc(CSupplyThunk *self)
{
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->dst);
    Py_CLEAR(self->addr);
    Py_CLEAR(self->value);
    return 0;
}

static void
Supply_dealloc(CSupplyThunk *self)
{
    PyObject_GC_UnTrack(self);
    Supply_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
Supply_call(CSupplyThunk *self, PyObject *args, PyObject *kwds)
{
    return PyObject_CallFunctionObjArgs(self->deliver, self->dst,
                                        self->addr, self->value, NULL);
}

static PyTypeObject CSupplyThunk_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._SupplyThunk",
    .tp_basicsize = sizeof(CSupplyThunk),
    .tp_dealloc = (destructor)Supply_dealloc,
    .tp_call = (ternaryfunc)Supply_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Supply_traverse,
    .tp_clear = (inquiry)Supply_clear_gc,
};

/* ------------------------------------------------------ receive thunk */

static int
SnoopRecv_traverse(CSnoopRecvThunk *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    Py_VISIT(self->addr);
    Py_VISIT(self->value);
    return 0;
}

static int
SnoopRecv_clear_gc(CSnoopRecvThunk *self)
{
    Py_CLEAR(self->core);
    Py_CLEAR(self->addr);
    Py_CLEAR(self->value);
    return 0;
}

static void
SnoopRecv_dealloc(CSnoopRecvThunk *self)
{
    PyObject_GC_UnTrack(self);
    SnoopRecv_clear_gc(self);
    PyObject_GC_Del(self);
}

static PyObject *
SnoopRecv_call(CSnoopRecvThunk *self, PyObject *args, PyObject *kwds)
{
    if (snoop_receive_impl(self->core, self->addr, self->value) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject CSnoopRecvThunk_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._SnoopRecvThunk",
    .tp_basicsize = sizeof(CSnoopRecvThunk),
    .tp_dealloc = (destructor)SnoopRecv_dealloc,
    .tp_call = (ternaryfunc)SnoopRecv_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)SnoopRecv_traverse,
    .tp_clear = (inquiry)SnoopRecv_clear_gc,
};

/* ---------------------------------------------------------- core type */

static int
SnoopCore_traverse(CSnoopCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->exclusive_state);
    Py_VISIT(self->owned_state);
    Py_VISIT(self->gets_type);
    Py_VISIT(self->getx_type);
    Py_VISIT(self->wb_type);
    Py_VISIT(self->waiting_phase);
    Py_VISIT(self->lost_phase);
    Py_VISIT(self->busreq_cls);
    Py_VISIT(self->bus_issue);
    Py_VISIT(self->deliver);
    Py_VISIT(self->writebacks_dict);
    Py_VISIT(self->forwards_dict);
    Py_VISIT(self->passed_set);
    Py_VISIT(self->corner_meth);
    Py_VISIT(self->forwards_meth);
    return ctrl_traverse(&self->base, visit, arg);
}

static int
SnoopCore_clear_gc(CSnoopCore *self)
{
    Py_CLEAR(self->exclusive_state);
    Py_CLEAR(self->owned_state);
    Py_CLEAR(self->gets_type);
    Py_CLEAR(self->getx_type);
    Py_CLEAR(self->wb_type);
    Py_CLEAR(self->waiting_phase);
    Py_CLEAR(self->lost_phase);
    Py_CLEAR(self->busreq_cls);
    Py_CLEAR(self->bus_issue);
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->writebacks_dict);
    Py_CLEAR(self->forwards_dict);
    Py_CLEAR(self->passed_set);
    Py_CLEAR(self->corner_meth);
    Py_CLEAR(self->forwards_meth);
    return ctrl_clear(&self->base);
}

/* _request: a GETS/GETX on the address bus. */
static int
snoop_request(CCtrlCore *core, PyObject *txn, PyObject *addr_obj,
              long long addr, int is_load)
{
    CSnoopCore *self = (CSnoopCore *)core;
    PyObject *busreq = PyObject_CallFunctionObjArgs(
        self->busreq_cls, core->node_obj, addr_obj,
        is_load ? self->gets_type : self->getx_type, NULL);
    if (busreq == NULL)
        return -1;
    PyObject *res = PyObject_CallOneArg(self->bus_issue, busreq);
    Py_DECREF(busreq);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *
SnoopCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *ctrl, *load_op, *store_op, *exclusive_state, *owned_state,
        *gets_type, *getx_type, *wb_type, *waiting_phase, *lost_phase,
        *busreq_cls, *txn_cls, *line_cls;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOO", &ctrl, &load_op,
                          &store_op, &exclusive_state, &owned_state,
                          &gets_type, &getx_type, &wb_type, &waiting_phase,
                          &lost_phase, &busreq_cls, &txn_cls, &line_cls))
        return NULL;
    CSnoopCore *self = (CSnoopCore *)ctrl_new(type, kwds, ctrl, load_op,
                                              store_op, txn_cls, line_cls);
    if (self == NULL)
        return NULL;
    self->base.request = snoop_request;
    self->exclusive_state = Py_NewRef(exclusive_state);
    self->owned_state = Py_NewRef(owned_state);
    self->gets_type = Py_NewRef(gets_type);
    self->getx_type = Py_NewRef(getx_type);
    self->wb_type = Py_NewRef(wb_type);
    self->waiting_phase = Py_NewRef(waiting_phase);
    self->lost_phase = Py_NewRef(lost_phase);
    self->busreq_cls = Py_NewRef(busreq_cls);
    if (getattrstr_ll(ctrl, "CACHE_TO_CACHE_CYCLES", &self->c2c_cycles) < 0)
        goto fail;
    PyObject *bus = PyObject_GetAttrString(ctrl, "bus");
    if (bus == NULL)
        goto fail;
    self->bus_issue = PyObject_GetAttrString(bus, "issue");
    Py_DECREF(bus);
    if (self->bus_issue == NULL ||
        capture_attr(&self->deliver, ctrl, "deliver_data") < 0 ||
        capture_attr(&self->writebacks_dict, ctrl, "writebacks") < 0 ||
        capture_attr(&self->forwards_dict, ctrl, "_pending_forwards") < 0 ||
        capture_attr(&self->passed_set, ctrl, "_ownership_passed") < 0 ||
        capture_attr(&self->corner_meth, ctrl, "_corner_case") < 0 ||
        capture_attr(&self->forwards_meth, ctrl,
                     "_process_pending_forwards") < 0)
        goto fail;
    if (!PyDict_Check(self->writebacks_dict) ||
        !PyDict_Check(self->forwards_dict)) {
        PyErr_SetString(PyExc_TypeError,
                        "writebacks and _pending_forwards must be dicts");
        goto fail;
    }
    if (!PyAnySet_Check(self->passed_set)) {
        PyErr_SetString(PyExc_TypeError, "_ownership_passed must be a set");
        goto fail;
    }
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* ------------------------------------------------------------- helpers */

/* CacheArray.set_state(addr, Invalid) on a line known present: state
 * first, then the value undo record, then the state undo record, then
 * the removal (the exact pure ordering the recovery log depends on). */
static int
snoop_invalidate(CSnoopCore *self, PyObject *set, PyObject *line,
                 PyObject *addr_obj)
{
    Py_INCREF(line);
    PyObject *old = PyObject_GetAttr(line, PS.state);
    if (old == NULL) {
        Py_DECREF(line);
        return -1;
    }
    if (PyObject_SetAttr(line, PS.state, self->base.invalid_state) < 0)
        goto fail;
    PyObject *val = PyObject_GetAttr(line, S.value);
    if (val == NULL)
        goto fail;
    int rc = txn_notify(self->base.observer, addr_obj, S.value, val, Py_None);
    Py_DECREF(val);
    if (rc < 0)
        goto fail;
    if (txn_notify(self->base.observer, addr_obj, PS.state, old,
                   self->base.invalid_state) < 0)
        goto fail;
    Py_DECREF(old);
    Py_DECREF(line);
    return PyDict_DelItem(set, addr_obj);

fail:
    Py_DECREF(old);
    Py_DECREF(line);
    return -1;
}

/* _supply(request, value): count and schedule the data delivery. */
static int
snoop_supply(CSnoopCore *self, PyObject *request, PyObject *value)
{
    if (comp_count(self->base.counters_dict, self->base.count_meth,
                   SN.cache_to_cache_transfers) < 0)
        return -1;
    PyObject *dst = PyObject_GetAttr(request, SN.requestor);
    if (dst == NULL)
        return -1;
    PyObject *addr = PyObject_GetAttr(request, PS.address);
    if (addr == NULL) {
        Py_DECREF(dst);
        return -1;
    }
    CSupplyThunk *t = PyObject_GC_New(CSupplyThunk, &CSupplyThunk_Type);
    if (t == NULL) {
        Py_DECREF(dst);
        Py_DECREF(addr);
        return -1;
    }
    Py_INCREF(self->deliver);
    t->deliver = self->deliver;
    t->dst = dst;               /* reference transferred */
    t->addr = addr;             /* reference transferred */
    PyObject *v = (value == Py_None) ? self->base.zero_obj : value;
    Py_INCREF(v);
    t->value = v;
    PyObject_GC_Track((PyObject *)t);
    PyObject *ev = queue_push_internal(self->base.cqueue,
                                       self->base.sim->now + self->c2c_cycles, 0,
                                       (PyObject *)t, self->base.name_obj);
    Py_DECREF(t);
    if (ev == NULL)
        return -1;
    Py_DECREF(ev);
    return 0;
}

/* _pending_store_txn(address): 1 when our outstanding, already-ordered
 * RequestReadWrite for `address` still owes forwards. */
static int
snoop_pending_store(CSnoopCore *self, PyObject *txn, PyObject *addr_obj)
{
    if (txn == Py_None)
        return 0;
    PyObject *taddr = PyObject_GetAttr(txn, PS.address);
    if (taddr == NULL)
        return -1;
    int same = PyObject_RichCompareBool(taddr, addr_obj, Py_EQ);
    Py_DECREF(taddr);
    if (same <= 0)
        return same;
    PyObject *tmp = PyObject_GetAttr(txn, TS.completed);
    if (tmp == NULL)
        return -1;
    int truth = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (truth != 0)
        return truth < 0 ? -1 : 0;
    PyObject *op = PyObject_GetAttr(txn, TS.op);
    if (op == NULL)
        return -1;
    int is_store = (op == self->base.store_op);
    Py_DECREF(op);
    if (!is_store)
        return 0;
    tmp = PyObject_GetAttr(txn, TS.data_received);
    if (tmp == NULL)
        return -1;
    truth = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (truth != 0)
        return truth < 0 ? -1 : 0;
    tmp = PyObject_GetAttr(txn, SN.bus_ordered);
    if (tmp == NULL)
        return -1;
    truth = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (truth <= 0)
        return truth;
    int in = PySet_Contains(self->passed_set, addr_obj);
    if (in < 0)
        return -1;
    return in ? 0 : 1;
}

/* The ordered-load late-invalidate test of _snoop_foreign_getx. */
static int
snoop_pending_ordered_load(CSnoopCore *self, PyObject *txn,
                           PyObject *addr_obj)
{
    if (txn == Py_None)
        return 0;
    PyObject *taddr = PyObject_GetAttr(txn, PS.address);
    if (taddr == NULL)
        return -1;
    int same = PyObject_RichCompareBool(taddr, addr_obj, Py_EQ);
    Py_DECREF(taddr);
    if (same <= 0)
        return same;
    PyObject *tmp = PyObject_GetAttr(txn, TS.completed);
    if (tmp == NULL)
        return -1;
    int truth = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (truth != 0)
        return truth < 0 ? -1 : 0;
    PyObject *op = PyObject_GetAttr(txn, TS.op);
    if (op == NULL)
        return -1;
    int is_load = (op == self->base.load_op);
    Py_DECREF(op);
    if (!is_load)
        return 0;
    tmp = PyObject_GetAttr(txn, SN.bus_ordered);
    if (tmp == NULL)
        return -1;
    truth = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (truth <= 0)
        return truth;
    tmp = PyObject_GetAttr(txn, TS.data_received);
    if (tmp == NULL)
        return -1;
    truth = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (truth < 0)
        return -1;
    return truth ? 0 : 1;
}

/* _pending_forwards.setdefault(addr, []).append(request). */
static int
snoop_defer_forward(CSnoopCore *self, PyObject *addr_obj, PyObject *request)
{
    PyObject *lst = PyDict_GetItemWithError(self->forwards_dict, addr_obj);
    if (lst != NULL)
        return PyList_Append(lst, request);
    if (PyErr_Occurred())
        return -1;
    lst = PyList_New(0);
    if (lst == NULL)
        return -1;
    int rc = PyDict_SetItem(self->forwards_dict, addr_obj, lst);
    if (rc == 0)
        rc = PyList_Append(lst, request);
    Py_DECREF(lst);
    return rc;
}

/* _install_line fast path: upgrade in place (always writing the
 * delivered value), else allocate. */
static int
snoop_install(CSnoopCore *self, PyObject *txn, PyObject *value,
              PyObject *addr_obj, long long addr)
{
    CCtrlCore *core = &self->base;
    PyObject *op = PyObject_GetAttr(txn, TS.op);
    if (op == NULL)
        return -1;
    PyObject *target = (op == core->load_op) ? core->shared_state
                                             : core->modified_state;
    Py_DECREF(op);
    PyObject *set = ctrl_set_for(core, addr);
    PyObject *existing = PyDict_GetItemWithError(set, addr_obj);
    if (existing == NULL && PyErr_Occurred())
        return -1;
    if (existing == NULL)
        return ctrl_allocate(core, set, txn, value, addr_obj, target);
    if (txn_set_state(core->observer, existing, addr_obj, target) < 0)
        return -1;
    return txn_set_value(core->observer, existing, addr_obj, value);
}

/* receive_data(address, value): install + complete + pending forwards. */
static int
snoop_receive_impl(CSnoopCore *self, PyObject *addr_obj, PyObject *value)
{
    PyObject *txn;
    int live = ctrl_data_txn(&self->base, addr_obj, SN.stale_data,
                             SN.duplicate_data, &txn);
    if (live <= 0)
        return live;
    if (PyObject_SetAttr(txn, TS.value_hint, value) < 0)
        goto fail;
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred())
        goto fail;
    if (snoop_install(self, txn, value, addr_obj, addr) < 0)
        goto fail;
    /* Late invalidate: keep the value for this one load, drop the line. */
    PyObject *flag = PyObject_GetAttr(txn, SN.invalidate_on_install);
    if (flag == NULL)
        goto fail;
    int inval = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    if (inval < 0)
        goto fail;
    if (inval) {
        PyObject *set = ctrl_set_for(&self->base, addr);
        PyObject *line = PyDict_GetItemWithError(set, addr_obj);
        if (line == NULL && PyErr_Occurred())
            goto fail;
        if (line != NULL && snoop_invalidate(self, set, line, addr_obj) < 0)
            goto fail;
    }
    if (ctrl_txn_complete(&self->base, txn) < 0)
        goto fail;
    /* _process_pending_forwards: the pure method pops + supplies; when
     * nothing is pending only the ownership-passed entry is dropped. */
    if (PyDict_GET_SIZE(self->forwards_dict) != 0) {
        PyObject *pending = PyDict_GetItemWithError(self->forwards_dict,
                                                    addr_obj);
        if (pending == NULL && PyErr_Occurred())
            goto fail;
        if (pending != NULL) {
            PyObject *res = PyObject_CallOneArg(self->forwards_meth,
                                                addr_obj);
            if (res == NULL)
                goto fail;
            Py_DECREF(res);
            Py_DECREF(txn);
            return 0;
        }
    }
    if (PySet_Discard(self->passed_set, addr_obj) < 0)
        goto fail;
    Py_DECREF(txn);
    return 0;

fail:
    Py_DECREF(txn);
    return -1;
}

/* snoop(request) -> bool: own-request ordering + foreign MOESI snoops. */
static PyObject *
SnoopCore_snoop(CSnoopCore *self, PyObject *request)
{
    PyObject *req_node = PyObject_GetAttr(request, SN.requestor);
    if (req_node == NULL)
        return NULL;
    int own = PyObject_RichCompareBool(req_node, self->base.node_obj, Py_EQ);
    Py_DECREF(req_node);
    if (own < 0)
        return NULL;
    PyObject *rtype = PyObject_GetAttr(request, SN.rtype);
    if (rtype == NULL)
        return NULL;
    PyObject *addr_obj = PyObject_GetAttr(request, PS.address);
    if (addr_obj == NULL) {
        Py_DECREF(rtype);
        return NULL;
    }
    PyObject *result = NULL;

    if (own) {
        if (rtype == self->wb_type) {
            /* Own writeback ordered on the bus. */
            PyObject *record = PyDict_GetItemWithError(self->writebacks_dict,
                                                       addr_obj);
            if (record == NULL && PyErr_Occurred())
                goto done;
            if (record != NULL) {
                if (PyDict_DelItem(self->writebacks_dict, addr_obj) < 0)
                    goto done;
                if (comp_count(self->base.counters_dict, self->base.count_meth,
                               SN.writebacks_ordered) < 0)
                    goto done;
            }
            result = Py_False;
            goto done;
        }
        PyObject *txn = PyObject_GetAttr(self->base.ctrl, TS.transaction);
        if (txn == NULL)
            goto done;
        int matches = 0;
        if (txn != Py_None) {
            PyObject *taddr = PyObject_GetAttr(txn, PS.address);
            if (taddr == NULL) {
                Py_DECREF(txn);
                goto done;
            }
            matches = PyObject_RichCompareBool(taddr, addr_obj, Py_EQ);
            Py_DECREF(taddr);
            if (matches < 0) {
                Py_DECREF(txn);
                goto done;
            }
        }
        if (!matches) {
            Py_DECREF(txn);
            result = Py_False;
            goto done;
        }
        if (comp_count(self->base.counters_dict, self->base.count_meth,
                       SN.own_request_ordered) < 0 ||
            PyObject_SetAttr(txn, SN.bus_ordered, Py_True) < 0) {
            Py_DECREF(txn);
            goto done;
        }
        Py_DECREF(txn);
        long long addr = PyLong_AsLongLong(addr_obj);
        if (addr == -1 && PyErr_Occurred())
            goto done;
        PyObject *set = ctrl_set_for(&self->base, addr);
        PyObject *line = PyDict_GetItemWithError(set, addr_obj);
        if (line == NULL && PyErr_Occurred())
            goto done;
        if (line != NULL) {
            PyObject *state = PyObject_GetAttr(line, PS.state);
            if (state == NULL)
                goto done;
            int valid = (state != self->base.invalid_state);
            Py_DECREF(state);
            if (valid) {
                /* Hit own valid copy at order time: self-deliver at +1. */
                PyObject *lvalue = PyObject_GetAttr(line, S.value);
                if (lvalue == NULL)
                    goto done;
                if (lvalue == Py_None)
                    Py_SETREF(lvalue, Py_NewRef(self->base.zero_obj));
                CSnoopRecvThunk *rt = PyObject_GC_New(CSnoopRecvThunk,
                                                      &CSnoopRecvThunk_Type);
                if (rt == NULL) {
                    Py_DECREF(lvalue);
                    goto done;
                }
                Py_INCREF(self);
                rt->core = self;
                Py_INCREF(addr_obj);
                rt->addr = addr_obj;
                rt->value = lvalue;  /* steal */
                PyObject_GC_Track((PyObject *)rt);
                PyObject *ev = queue_push_internal(self->base.cqueue,
                                                   self->base.sim->now + 1, 0,
                                                   (PyObject *)rt,
                                                   self->base.name_obj);
                Py_DECREF(rt);
                if (ev == NULL)
                    goto done;
                Py_DECREF(ev);
                result = Py_True;
                goto done;
            }
        }
        result = Py_False;
        goto done;
    }

    /* Foreign request. */
    if (rtype == self->wb_type) {
        result = Py_False;
        goto done;
    }
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred())
        goto done;
    PyObject *set = ctrl_set_for(&self->base, addr);
    PyObject *line = PyDict_GetItemWithError(set, addr_obj);  /* borrowed */
    if (line == NULL && PyErr_Occurred())
        goto done;
    PyObject *state;  /* new ref */
    if (line != NULL) {
        Py_INCREF(line);  /* hold across invalidation */
        state = PyObject_GetAttr(line, PS.state);
        if (state == NULL) {
            Py_DECREF(line);
            goto done;
        }
    }
    else {
        state = self->base.invalid_state;
        Py_INCREF(state);
    }
    PyObject *record = PyDict_GetItemWithError(self->writebacks_dict,
                                               addr_obj);
    if (record == NULL && PyErr_Occurred()) {
        Py_XDECREF(line);
        Py_DECREF(state);
        goto done;
    }
    Py_XINCREF(record);
    int is_owner = (state == self->base.modified_state ||
                    state == self->owned_state ||
                    state == self->exclusive_state);

    if (rtype == self->gets_type) {
        if (is_owner) {
            if ((state == self->base.modified_state ||
                 state == self->exclusive_state) &&
                txn_set_state(self->base.observer, line, addr_obj,
                              self->owned_state) < 0)
                goto fail_foreign;
            PyObject *lvalue = PyObject_GetAttr(line, S.value);
            if (lvalue == NULL)
                goto fail_foreign;
            int rc = snoop_supply(self, request, lvalue);
            Py_DECREF(lvalue);
            if (rc < 0)
                goto fail_foreign;
            result = Py_True;
            goto done_foreign;
        }
        if (record != NULL) {
            PyObject *phase = PyObject_GetAttr(record, SN.phase);
            if (phase == NULL)
                goto fail_foreign;
            int waiting = (phase == self->waiting_phase);
            Py_DECREF(phase);
            if (waiting) {
                PyObject *rvalue = PyObject_GetAttr(record, S.value);
                if (rvalue == NULL)
                    goto fail_foreign;
                int rc = snoop_supply(self, request, rvalue);
                Py_DECREF(rvalue);
                if (rc < 0)
                    goto fail_foreign;
                result = Py_True;
                goto done_foreign;
            }
        }
        PyObject *txn = PyObject_GetAttr(self->base.ctrl, TS.transaction);
        if (txn == NULL)
            goto fail_foreign;
        int pending = snoop_pending_store(self, txn, addr_obj);
        Py_DECREF(txn);
        if (pending < 0)
            goto fail_foreign;
        if (pending) {
            if (snoop_defer_forward(self, addr_obj, request) < 0 ||
                comp_count(self->base.counters_dict, self->base.count_meth,
                           SN.forwards_deferred) < 0)
                goto fail_foreign;
            result = Py_True;
            goto done_foreign;
        }
        result = Py_False;
        goto done_foreign;
    }

    /* GETX */
    {
        int supplied = 0;
        if (is_owner) {
            PyObject *lvalue = PyObject_GetAttr(line, S.value);
            if (lvalue == NULL)
                goto fail_foreign;
            int rc = snoop_supply(self, request, lvalue);
            Py_DECREF(lvalue);
            if (rc < 0)
                goto fail_foreign;
            supplied = 1;
        }
        if (state != self->base.invalid_state) {
            if (snoop_invalidate(self, set, line, addr_obj) < 0)
                goto fail_foreign;
        }
        PyObject *txn = PyObject_GetAttr(self->base.ctrl, TS.transaction);
        if (txn == NULL)
            goto fail_foreign;
        int pending = snoop_pending_store(self, txn, addr_obj);
        if (pending < 0) {
            Py_DECREF(txn);
            goto fail_foreign;
        }
        if (pending) {
            /* Our pending store will win the line later; remember that
             * ownership already passed to this requestor. */
            if (snoop_defer_forward(self, addr_obj, request) < 0 ||
                PySet_Add(self->passed_set, addr_obj) < 0 ||
                comp_count(self->base.counters_dict, self->base.count_meth,
                           SN.forwards_deferred) < 0) {
                Py_DECREF(txn);
                goto fail_foreign;
            }
            supplied = 1;
        }
        else {
            int ordered_load = snoop_pending_ordered_load(self, txn,
                                                          addr_obj);
            if (ordered_load < 0) {
                Py_DECREF(txn);
                goto fail_foreign;
            }
            if (ordered_load) {
                if (PyObject_SetAttr(txn, SN.invalidate_on_install,
                                     Py_True) < 0 ||
                    comp_count(self->base.counters_dict, self->base.count_meth,
                               SN.late_invalidates) < 0) {
                    Py_DECREF(txn);
                    goto fail_foreign;
                }
            }
        }
        Py_DECREF(txn);
        if (record != NULL) {
            PyObject *phase = PyObject_GetAttr(record, SN.phase);
            if (phase == NULL)
                goto fail_foreign;
            if (phase == self->waiting_phase) {
                Py_DECREF(phase);
                PyObject *rvalue = PyObject_GetAttr(record, S.value);
                if (rvalue == NULL)
                    goto fail_foreign;
                int rc = snoop_supply(self, request, rvalue);
                Py_DECREF(rvalue);
                if (rc < 0)
                    goto fail_foreign;
                if (PyObject_SetAttr(record, SN.phase,
                                     self->lost_phase) < 0)
                    goto fail_foreign;
                PyObject *rreq = PyObject_GetAttr(record,
                                                  SN.record_request);
                if (rreq == NULL)
                    goto fail_foreign;
                rc = PyObject_SetAttr(rreq, S.value, Py_None);
                Py_DECREF(rreq);
                if (rc < 0)
                    goto fail_foreign;
                if (comp_count(self->base.counters_dict, self->base.count_meth,
                               SN.writeback_race_first_getx) < 0)
                    goto fail_foreign;
                supplied = 1;
            }
            else if (phase == self->lost_phase) {
                Py_DECREF(phase);
                PyObject *res = PyObject_CallOneArg(self->corner_meth,
                                                    request);
                if (res == NULL)
                    goto fail_foreign;
                Py_DECREF(res);
            }
            else
                Py_DECREF(phase);
        }
        result = supplied ? Py_True : Py_False;
        goto done_foreign;
    }

fail_foreign:
    Py_XDECREF(record);
    Py_XDECREF(line);
    Py_DECREF(state);
    goto done;
done_foreign:
    Py_XDECREF(record);
    Py_XDECREF(line);
    Py_DECREF(state);
done:
    Py_DECREF(rtype);
    Py_DECREF(addr_obj);
    if (result == NULL)
        return NULL;
    Py_INCREF(result);
    return result;
}

static PyObject *
SnoopCore_receive_data(CSnoopCore *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "receive_data expects (address, value)");
        return NULL;
    }
    if (snoop_receive_impl(self, args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef SnoopCore_methods[] = {
    {"access", (PyCFunction)(void (*)(void))CtrlCore_access,
     METH_FASTCALL, "compiled BlockingCacheController.access"},
    {"snoop", (PyCFunction)SnoopCore_snoop, METH_O,
     "compiled SnoopingCacheController.snoop"},
    {"receive_data", (PyCFunction)(void (*)(void))SnoopCore_receive_data,
     METH_FASTCALL, "compiled SnoopingCacheController.receive_data"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CSnoopCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.SnoopCore",
    .tp_basicsize = sizeof(CSnoopCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled snooping cache-controller transition handlers",
    .tp_new = SnoopCore_new,
    .tp_dealloc = (destructor)ctrl_dealloc,
    .tp_traverse = (traverseproc)SnoopCore_traverse,
    .tp_clear = (inquiry)SnoopCore_clear_gc,
    .tp_methods = SnoopCore_methods,
};

static PyMethodDef module_methods[] = {
    {NULL}
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._ckernel",
    .m_doc = "Compiled kernel tier (byte-identical to the pure-Python "
             "kernel; see repro.kernel for selection).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *engine = PyImport_ImportModule("repro.sim.engine");
    if (engine == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(engine, "SimulationError");
    Py_DECREF(engine);
    if (SimulationError == NULL)
        return NULL;
    empty_string = PyUnicode_InternFromString("");
    if (empty_string == NULL)
        return NULL;

    if (PyType_Ready(&CEvent_Type) < 0 ||
        PyType_Ready(&CEventQueue_Type) < 0 ||
        PyType_Ready(&CDrainIter_Type) < 0 ||
        PyType_Ready(&CSimulator_Type) < 0 ||
        PyType_Ready(&CSwitchCore_Type) < 0 ||
        PyType_Ready(&CForwardThunk_Type) < 0 ||
        PyType_Ready(&CDeliverThunk_Type) < 0 ||
        PyType_Ready(&CUndoRecord_Type) < 0 ||
        PyType_Ready(&CLogObserver_Type) < 0 ||
        PyType_Ready(&CProcCore_Type) < 0 ||
        PyType_Ready(&CSendCore_Type) < 0 ||
        PyType_Ready(&CRecvCore_Type) < 0 ||
        PyType_Ready(&CBusCore_Type) < 0 ||
        PyType_Ready(&CBusSnoopThunk_Type) < 0 ||
        PyType_Ready(&CFinishThunk_Type) < 0 ||
        PyType_Ready(&CTimeoutThunk_Type) < 0 ||
        PyType_Ready(&CTxnCore_Type) < 0 ||
        PyType_Ready(&CMemCore_Type) < 0 ||
        PyType_Ready(&CSnoopCore_Type) < 0 ||
        PyType_Ready(&CSupplyThunk_Type) < 0 ||
        PyType_Ready(&CSnoopRecvThunk_Type) < 0)
        return NULL;

    /* Interned attribute names for the switch-core hot paths. */
#define INTERN(field, text)                                             \
    do {                                                                \
        S.field = PyUnicode_InternFromString(text);                     \
        if (S.field == NULL)                                            \
            return NULL;                                                \
    } while (0)
    INTERN(reserved, "_reserved");
    INTERN(total_enqueued, "total_enqueued");
    INTERN(peak_occupancy, "peak_occupancy");
    INTERN(name, "name");
    INTERN(busy_until, "busy_until");
    INTERN(busy_cycles, "busy_cycles");
    INTERN(messages_carried, "messages_carried");
    INTERN(bytes_carried, "bytes_carried");
    INTERN(hops, "hops");
    INTERN(dst, "dst");
    INTERN(src, "src");
    INTERN(vnet, "vnet");
    INTERN(size_bytes, "size_bytes");
    INTERN(value, "value");
    INTERN(flush_epoch, "flush_epoch");
    INTERN(messages_forwarded, "messages_forwarded");
    INTERN(messages_ejected, "messages_ejected");
    INTERN(blocked_events, "blocked_events");
    INTERN(c_injected, "_c_injected");
    INTERN(c_ejected, "_c_ejected");
    INTERN(c_forwarded, "_c_forwarded");
    INTERN(queue_attr, "_queue");
    INTERN(popleft, "popleft");
    INTERN(append, "append");
    INTERN(core_attr, "_core");
    INTERN(capacity_attr, "capacity");
    INTERN(latency_cycles_attr, "latency_cycles");
    INTERN(delivered_at, "delivered_at");
    INTERN(injected_at, "injected_at");
    INTERN(messages_delivered, "messages_delivered");
    INTERN(total_message_latency, "total_message_latency");
    INTERN(delivered, "delivered");
    INTERN(receive, "receive");
    INTERN(ordering, "ordering");
    INTERN(note_delivery, "note_delivery");
    INTERN(deliver_label, "deliver");
    INTERN(squashed_net, "network.squashed_in_flight");
    INTERN(delivered_name, "delivered");
    INTERN(reordered_name, "reordered");
    INTERN(send_seq_name, "send_seq");
    INTERN(max_delivered_seq, "max_delivered_seq");
#undef INTERN
#define INTERN(field, text)                                             \
    do {                                                                \
        LS.field = PyUnicode_InternFromString(text);                    \
        if (LS.field == NULL)                                           \
            return NULL;                                                \
    } while (0)
    INTERN(seq, "seq");
    INTERN(tail_seq, "_tail_seq");
    INTERN(tail, "_tail");
    INTERN(total_logged, "total_logged");
    INTERN(occupancy, "_occupancy");
    INTERN(peak_occupancy, "peak_occupancy");
    INTERN(overflow_stalls, "overflow_stalls");
#undef INTERN
#define INTERN(field, text)                                             \
    do {                                                                \
        PS.field = PyUnicode_InternFromString(text);                    \
        if (PS.field == NULL)                                           \
            return NULL;                                                \
    } while (0)
    INTERN(issue_pending, "_issue_pending");
    INTERN(waiting, "_waiting_for_memory");
    INTERN(stalled_until, "stalled_until");
    INTERN(stream_index, "stream_index");
    INTERN(references, "references");
    INTERN(retired_instructions, "retired_instructions");
    INTERN(store_counter, "store_counter");
    INTERN(references_completed, "references_completed");
    INTERN(state, "state");
    INTERN(hits, "hits");
    INTERN(store_value_hook, "_store_value_hook");
    INTERN(counters_attr, "_counters");
    INTERN(l1_hits, "l1_hits");
    INTERN(gap, "gap");
    INTERN(next_send_seq, "next_send_seq");
    INTERN(send_seq, "send_seq");
    INTERN(messages_sent, "messages_sent");
    INTERN(injected, "injected");
    INTERN(sent_name, "sent");
    INTERN(msg_class, "msg_class");
    INTERN(payload, "payload");
    INTERN(address, "address");
    INTERN(issued_at, "issued_at");
    INTERN(ordered_at, "ordered_at");
    INTERN(requests_ordered, "requests_ordered");
    INTERN(busy, "_busy");
    INTERN(requests_issued, "requests_issued");
    INTERN(arb_label, "bus.arbitrate");
    INTERN(snoop_label, "bus.snoop");
#undef INTERN
#define INTERN(field, text)                                             \
    do {                                                                \
        TS.field = PyUnicode_InternFromString(text);                    \
        if (TS.field == NULL)                                           \
            return NULL;                                                \
    } while (0)
    INTERN(transaction, "transaction");
    INTERN(timeout_cycles, "timeout_cycles");
    INTERN(pending_request, "_pending_request");
    INTERN(pending_on_complete, "_pending_on_complete");
    INTERN(data_received, "data_received");
    INTERN(acks_needed, "acks_needed");
    INTERN(acks_received, "acks_received");
    INTERN(acks_expected, "acks_expected");
    INTERN(completed, "completed");
    INTERN(on_complete_attr, "on_complete");
    INTERN(timeout_event, "timeout_event");
    INTERN(started_at, "started_at");
    INTERN(txn_id, "txn_id");
    INTERN(op, "op");
    INTERN(tick, "_tick");
    INTERN(last_used, "last_used");
    INTERN(misses, "misses");
    INTERN(evictions, "evictions");
    INTERN(completed_at, "completed_at");
    INTERN(miss_hist, "_miss_latency_hist");
    INTERN(mem_hist, "_mem_latency_hist");
    INTERN(buckets, "buckets");
    INTERN(count_name, "count");
    INTERN(total, "total");
    INTERN(min_name, "min");
    INTERN(max_name, "max");
    INTERN(bucket_width, "bucket_width");
    INTERN(cancel, "cancel");
    INTERN(load_hits, "load_hits");
    INTERN(store_hits, "store_hits");
    INTERN(load_misses, "load_misses");
    INTERN(store_misses, "store_misses");
    INTERN(transactions_issued, "transactions_issued");
    INTERN(transactions_completed, "transactions_completed");
    INTERN(stale_data, "stale_data_messages");
    INTERN(duplicate_data, "duplicate_data_messages");
    INTERN(stale_acks, "stale_acks");
    INTERN(memory_references, "memory_references");
    INTERN(value_hint, "value_hint");
#undef INTERN
#define INTERN(field, text)                                             \
    do {                                                                \
        SN.field = PyUnicode_InternFromString(text);                    \
        if (SN.field == NULL)                                           \
            return NULL;                                                \
    } while (0)
    INTERN(requestor, "requestor");
    INTERN(rtype, "rtype");
    INTERN(phase, "phase");
    INTERN(record_request, "request");
    INTERN(bus_ordered, "bus_ordered");
    INTERN(invalidate_on_install, "invalidate_on_install");
    INTERN(writebacks_ordered, "writebacks_ordered");
    INTERN(own_request_ordered, "own_request_ordered");
    INTERN(cache_to_cache_transfers, "cache_to_cache_transfers");
    INTERN(forwards_deferred, "forwards_deferred");
    INTERN(late_invalidates, "late_invalidates");
    INTERN(writeback_race_first_getx, "writeback_race_first_getx");
    INTERN(stale_data, "stale_data");
    INTERN(duplicate_data, "duplicate_data");
#undef INTERN
    delay_kwnames = Py_BuildValue("(s)", "delay");
    if (delay_kwnames == NULL)
        return NULL;

    /* Class constants mirrored from the pure tier (read by callers and
     * tests; the C code itself uses the compile-time macros). */
    if (PyDict_SetItemString(CEventQueue_Type.tp_dict, "COMPACT_MIN_ENTRIES",
                             PyLong_FromLong(COMPACT_MIN_ENTRIES)) < 0 ||
        PyDict_SetItemString(CEventQueue_Type.tp_dict, "FREELIST_MAX",
                             PyLong_FromLong(FREELIST_MAX)) < 0)
        return NULL;

    PyObject *mod = PyModule_Create(&ckernel_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddObjectRef(mod, "Event", (PyObject *)&CEvent_Type) < 0 ||
        PyModule_AddObjectRef(mod, "EventQueue",
                              (PyObject *)&CEventQueue_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Simulator",
                              (PyObject *)&CSimulator_Type) < 0 ||
        PyModule_AddObjectRef(mod, "SwitchCore",
                              (PyObject *)&CSwitchCore_Type) < 0 ||
        PyModule_AddObjectRef(mod, "UndoRecord",
                              (PyObject *)&CUndoRecord_Type) < 0 ||
        PyModule_AddObjectRef(mod, "LogObserver",
                              (PyObject *)&CLogObserver_Type) < 0 ||
        PyModule_AddObjectRef(mod, "ProcessorCore",
                              (PyObject *)&CProcCore_Type) < 0 ||
        PyModule_AddObjectRef(mod, "MessageSendCore",
                              (PyObject *)&CSendCore_Type) < 0 ||
        PyModule_AddObjectRef(mod, "DirectoryReceiveCore",
                              (PyObject *)&CRecvCore_Type) < 0 ||
        PyModule_AddObjectRef(mod, "BusCore",
                              (PyObject *)&CBusCore_Type) < 0 ||
        PyModule_AddObjectRef(mod, "TransactionCore",
                              (PyObject *)&CTxnCore_Type) < 0 ||
        PyModule_AddObjectRef(mod, "MemoryCompleteCore",
                              (PyObject *)&CMemCore_Type) < 0 ||
        PyModule_AddObjectRef(mod, "SnoopCore",
                              (PyObject *)&CSnoopCore_Type) < 0 ||
        PyModule_AddStringConstant(mod, "COMPILER", CKERNEL_COMPILER) < 0 ||
        PyModule_AddStringConstant(mod, "SOURCE_SHA256",
                                   CKERNEL_SOURCE_SHA256) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
