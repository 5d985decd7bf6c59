/* Compiled kernel tier: C implementations of the simulation hot paths.
 *
 * This module mirrors the pure-Python kernel byte-for-byte:
 *
 *   - Event / EventQueue / Simulator  <->  repro.sim.engine
 *   - SwitchCore                      <->  repro.interconnect.switch.Switch
 *   - UndoRecord / CheckpointLogBuffer / make_log_observer
 *                                     <->  repro.safetynet.log + the
 *                                          SafetyNet.register_store observer
 *
 * The protocol cores live in _ckernel_protocol.c, the second translation
 * unit of the same extension; _ckernel.h holds what the two share, and
 * PyInit__ckernel below readies and exports the types of both.
 *
 * Byte-identity contract (DESIGN.md par.10): dispatch order is a pure
 * function of the (time, seq) ordering keys, every counter keeps the pure
 * tier's lazy-creation semantics, and no behaviour may depend on the heap's
 * internal arrangement.  The heap here is a C array of
 * {time, seq, event} structs -- no tuple allocation and no rich
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

#include "_ckernel.h"

#if defined(__clang__)
#define CKERNEL_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define CKERNEL_COMPILER "gcc " __VERSION__
#else
#define CKERNEL_COMPILER "unknown"
#endif

/* Digest of every _ckernel*.c and _ckernel*.h source, passed by setup.py;
 * repro.kernel refuses a build whose digest differs from the sources next to
 * it (a stale build). */
#ifndef CKERNEL_SOURCE_SHA256
#define CKERNEL_SOURCE_SHA256 ""
#endif

/* Copy of repro.sim.engine.EventQueue.COMPACT_MIN_ENTRIES; the engine tests
 * hold the compiled queue to the pure class's value. */
#define COMPACT_MIN_ENTRIES 512
#define TIME_SENTINEL (1LL << 62)

/* Set at module init from repro.sim.engine so both tiers raise the same
 * exception class. */
static PyObject *SimulationError = NULL;
static PyObject *empty_string = NULL;

static PyTypeObject CEvent_Type;
static PyTypeObject CEventQueue_Type;

static void queue_compact(CEventQueue *q);

/* ------------------------------------------------------------ Event type */

/* A new unqueued event; queue_push_static_internal sets its time and seq. */
CEvent *
event_alloc(PyObject *callback, PyObject *label)
{
    CEvent *ev = PyObject_GC_New(CEvent, &CEvent_Type);
    if (ev == NULL)
        return NULL;
    ev->time = 0;
    ev->seq = 0;
    Py_XINCREF(callback);
    ev->callback = callback;
    Py_INCREF(label);
    ev->label = label;
    ev->queue = NULL;
    ev->cancelled = 0;
    PyObject_GC_Track((PyObject *)ev);
    return ev;
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

/* Mirror of the pure tier's inlined bookkeeping in Event.cancel. */
static PyObject *
Event_cancel(CEvent *self, PyObject *Py_UNUSED(ignored))
{
    if (self->cancelled)
        Py_RETURN_NONE;
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
    Py_RETURN_NONE;
}

static PyObject *
Event_repr(CEvent *self)
{
    return PyUnicode_FromFormat("<Event t=%lld %R%s>",
                                self->time, self->label,
                                self->cancelled ? " cancelled" : "");
}

static PyObject *
Event_get_time(CEvent *self, void *closure)
{
    return PyLong_FromLongLong(self->time);
}

static PyObject *
Event_get_seq(CEvent *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
Event_get_callback(CEvent *self, void *closure)
{
    PyObject *cb = self->callback ? self->callback : Py_None;
    Py_INCREF(cb);
    return cb;
}

static PyObject *
Event_get_label(CEvent *self, void *closure)
{
    Py_INCREF(self->label);
    return self->label;
}

static PyObject *
Event_get_cancelled(CEvent *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyGetSetDef Event_getset[] = {
    {"time", (getter)Event_get_time, NULL, NULL, NULL},
    {"seq", (getter)Event_get_seq, NULL, NULL, NULL},
    {"callback", (getter)Event_get_callback, NULL, NULL, NULL},
    {"label", (getter)Event_get_label, NULL, NULL, NULL},
    {"cancelled", (getter)Event_get_cancelled, NULL, NULL, NULL},
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
    return 0;
}

static int
Queue_clear_gc(CEventQueue *self)
{
    Py_ssize_t n = self->heap_size;
    self->heap_size = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_DECREF(self->heap[i].ev);
    return 0;
}

static void
Queue_dealloc(CEventQueue *self)
{
    PyObject_GC_UnTrack(self);
    Queue_clear_gc(self);
    PyMem_Free(self->heap);
    PyObject_GC_Del(self);
}

static void
queue_compact(CEventQueue *q)
{
    Py_ssize_t out = 0;
    for (Py_ssize_t i = 0; i < q->heap_size; i++) {
        CEvent *ev = q->heap[i].ev;
        if (ev->cancelled)
            Py_DECREF(ev);
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
PyObject *
queue_push_internal(CEventQueue *q, long long time, PyObject *callback,
                    PyObject *label)
{
    if (time < 0) {
        PyErr_Format(SimulationError,
                     "cannot schedule event at negative time %lld", time);
        return NULL;
    }
    CEvent *ev = event_alloc(callback, label);
    if (ev == NULL)
        return NULL;
    if (queue_push_static_internal(q, ev, time) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

/* Parse (time, callback, label="") from a fastcall. */
static int
parse_push_args(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                const char *who, long long *time, PyObject **callback,
                PyObject **label)
{
    PyObject *slots[3] = {NULL, NULL, NULL};
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    if (nargs > 3 || total > 3 || total < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s expected 2 or 3 arguments, got %zd", who, total);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        slots[i] = args[i];
    if (kwnames) {
        static const char *names[3] = {"time", "callback", "label"};
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            int matched = 0;
            for (int s = 0; s < 3; s++) {
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
    *label = slots[2] != NULL ? slots[2] : empty_string;
    return 0;
}

static PyObject *
Queue_push(CEventQueue *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    long long time;
    PyObject *callback, *label;
    if (parse_push_args(args, nargs, kwnames, "push()", &time, &callback,
                        &label) < 0)
        return NULL;
    return queue_push_internal(self, time, callback, label);
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
    if (!PyLong_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "event time must be an int");
        return NULL;
    }
    long long time = PyLong_AsLongLong(args[1]);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    if (queue_push_static_internal(self, (CEvent *)args[0], time) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Queue_new_static_event(CEventQueue *self, PyObject *const *args,
                       Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *slots[2] = {NULL, NULL};
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    if (nargs > 2 || total > 2 || total < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "new_static_event(callback, label='')");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        slots[i] = args[i];
    if (kwnames) {
        static const char *names[2] = {"callback", "label"};
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            int matched = 0;
            for (int s = 0; s < 2; s++) {
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
    return (PyObject *)event_alloc(slots[0],
                                   slots[1] != NULL ? slots[1] : empty_string);
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
        PyObject *tuple = Py_BuildValue("LLO", e->time, e->seq, e->ev);
        if (tuple == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, tuple);
    }
    return list;
}

static PyObject *
Queue_get_compactions(CEventQueue *self, void *closure)
{
    return PyLong_FromLongLong(self->compactions);
}

static PyGetSetDef Queue_getset[] = {
    {"_heap", (getter)Queue_get_heap, NULL,
     "Snapshot of the heap as (time, seq, event) tuples.", NULL},
    {"compactions", (getter)Queue_get_compactions, NULL, NULL, NULL},
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
     "Create a caller-owned permanent event compatible with this queue."},
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
    self->now = 0;
    self->events_executed = 0;
    self->stop_requested = 0;
    PyObject_GC_Track((PyObject *)self);
    self->queue = queue_alloc();
    if (self->queue == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static int
Sim_traverse(CSimulator *self, visitproc visit, void *arg)
{
    Py_VISIT(self->queue);
    return 0;
}

static int
Sim_clear_gc(CSimulator *self)
{
    Py_CLEAR(self->queue);
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
    PyObject *callback, *label;
    /* Same slot layout as push(): (delay, callback, label). */
    if (parse_push_args(args, nargs, kwnames, "schedule()", &delay,
                        &callback, &label) < 0)
        return NULL;
    if (delay < 0) {
        PyErr_Format(SimulationError, "negative delay %lld", delay);
        return NULL;
    }
    return queue_push_internal(self->queue, self->now + delay, callback,
                               label);
}

static PyObject *
Sim_schedule_at(CSimulator *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    long long time;
    PyObject *callback, *label;
    if (parse_push_args(args, nargs, kwnames, "schedule_at()", &time,
                        &callback, &label) < 0)
        return NULL;
    if (time < self->now) {
        PyErr_Format(SimulationError,
                     "cannot schedule event in the past (now=%lld, time=%lld)",
                     self->now, time);
        return NULL;
    }
    return queue_push_internal(self->queue, time, callback, label);
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
    self->stop_requested = 0;
    long long executed = 0;
    int failed = 0;
    while (q->heap_size) {
        if (self->stop_requested || executed >= events_bound)
            break;
        HeapEntry entry = heap_pop_root(q);
        CEvent *ev = entry.ev;
        if (ev->cancelled) {
            Py_DECREF(ev);
            continue;
        }
        if (entry.time > until_bound) {
            /* Out of the window: put the event back (same key, ordering
             * untouched) and stop at the bound. */
            if (heap_push_entry(q, entry) < 0) {
                failed = 1;
                break;
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
            break;
        }
        Py_DECREF(res);
        executed++;
        Py_DECREF(ev);
    }
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
Sim_get_now(CSimulator *self, void *closure)
{
    return PyLong_FromLongLong(self->now);
}

static PyObject *
Sim_get_events_executed(CSimulator *self, void *closure)
{
    return PyLong_FromLongLong(self->events_executed);
}

static PyObject *
Sim_get_queue(CSimulator *self, void *closure)
{
    Py_INCREF(self->queue);
    return (PyObject *)self->queue;
}

static PyGetSetDef Sim_getset[] = {
    {"now", (getter)Sim_get_now, NULL,
     "Current simulation time in cycles.", NULL},
    {"_now", (getter)Sim_get_now, NULL, NULL, NULL},
    {"events_executed", (getter)Sim_get_events_executed, NULL, NULL, NULL},
    {"queue", (getter)Sim_get_queue, NULL, NULL, NULL},
    {NULL}
};

static PyMethodDef Sim_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Sim_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule callback `delay` cycles from now."},
    {"schedule_at", (PyCFunction)(void (*)(void))Sim_schedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule callback at an absolute cycle (must not be in the past)."},
    {"stop", (PyCFunction)Sim_stop, METH_NOARGS,
     "Request that run() return after the current event."},
    {"run", (PyCFunction)(void (*)(void))Sim_run,
     METH_FASTCALL | METH_KEYWORDS,
     "Run events until the queue drains, `until` cycles, or `max_events`."},
    {NULL}
};

PyTypeObject CSimulator_Type = {
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

/* Interned attribute names used on the hot paths (declared in _ckernel.h:
 * the protocol cores read them too). */
struct switch_names S;

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
static inline int
core_push_scan(CSwitchCore *self, long long time)
{
    return queue_push_static_internal(self->cqueue, self->scan_event, time);
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
    Py_VISIT(self->append);
    return 0;
}

static int
Thunk_clear_gc(CForwardThunk *self)
{
    Py_CLEAR(self->down);
    Py_CLEAR(self->message);
    Py_CLEAR(self->buf);
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
                       PyObject *append, uint64_t bit, int count_hop)
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
    if (core_receive_into_slot(down, self->message, self->buf, self->append,
                               self->bit, 1) < 0)
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
        addattr_ll(network, S.messages_delivered, 1) < 0)
        return NULL;
    long long injected;
    if (getattr_ll(message, S.injected_at, &injected) < 0 ||
        addattr_ll(network, S.total_message_latency, now - injected) < 0)
        return NULL;
    /* Point-to-point ordering, as in the pure _deliver: one dict probe
     * for the stream's OrderingRecord, then the per-vnet tallies. */
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
        if (getattr_ll(message, S.send_seq_name, &send_seq) < 0 ||
            getattr_ll(record, S.max_delivered_seq, &max_seq) < 0) {
            if (rec_new)
                Py_DECREF(record);
            goto fail_vn;
        }
        reordered = send_seq < max_seq;
        if (!reordered &&
            setattr_ll(record, S.max_delivered_seq, send_seq) < 0) {
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
        self->cqueue, self->sim->now + self->ejection_latency,
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
    /* ordering-tracker caches for the delivery thunk's ordering check.
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
    self->scan_event = event_alloc(scan_cb, label);
    Py_DECREF(scan_cb);
    Py_DECREF(label);
    if (self->scan_event == NULL)
        goto fail;
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
    int rc = core_receive_into_slot(self, message, buf, append,
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
                    if (core_count(self, self->lbl_blocked_on_buffer) < 0) {
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
                Py_DECREF(size_obj);
                long long new_busy = now + ser;
                if (setattr_ll(out->link, S.busy_until, new_busy) < 0 ||
                    addattr_ll(out->link, S.busy_cycles, ser) < 0) {
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
                Py_INCREF(dslot->append);
                thunk->append = dslot->append;
                thunk->bit = dslot->bit;
                thunk->epoch = epoch;
                PyObject_GC_Track((PyObject *)thunk);
                message = NULL;
                PyObject *ev = queue_push_internal(self->cqueue, arrival,
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
    INTERN(name, "name");
    INTERN(busy_until, "busy_until");
    INTERN(busy_cycles, "busy_cycles");
    INTERN(hops, "hops");
    INTERN(dst, "dst");
    INTERN(src, "src");
    INTERN(vnet, "vnet");
    INTERN(size_bytes, "size_bytes");
    INTERN(value, "value");
    INTERN(flush_epoch, "flush_epoch");
    INTERN(messages_forwarded, "messages_forwarded");
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
    INTERN(receive, "receive");
    INTERN(ordering, "ordering");
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
    INTERN(l1_hits, "l1_hits");
    INTERN(gap, "gap");
    INTERN(next_send_seq, "next_send_seq");
    INTERN(send_seq, "send_seq");
    INTERN(messages_sent, "messages_sent");
    INTERN(sent_name, "sent");
    INTERN(msg_class, "msg_class");
    INTERN(payload, "payload");
    INTERN(address, "address");
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
    INTERN(txn_id, "txn_id");
    INTERN(op, "op");
    INTERN(tick, "_tick");
    INTERN(last_used, "last_used");
    INTERN(misses, "misses");
    INTERN(evictions, "evictions");
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
