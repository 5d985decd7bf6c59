/* Compiled kernel tier, protocol cores: the second translation unit of
 * repro._ckernel (the first, _ckernelmodule.c, holds the event engine, the
 * switch core, the undo-log path and PyInit__ckernel; _ckernel.h holds what
 * the two share).
 *
 * Compiled fast paths for the per-reference / per-message protocol hot
 * loops: the processor issue loop (ProcessorCore), the protocol message
 * send path (MessageSendCore), the directory-node receive dispatch
 * (DirectoryReceiveCore), the snooping bus arbitration (BusCore), the
 * blocking L2 controller lifecycle (CCtrlCore) that TransactionCore and
 * SnoopCore share, and the memory completion path (MemoryCompleteCore).
 * Like SwitchCore, each is a line-for-line port of the pure method it
 * replaces: it reads and writes the same Python attributes at the same
 * points, counts through the same lazily created Counters, and defers
 * every cold branch to the pure implementation (which stays the single
 * source of truth for the semantics).  They are installed by the
 * System._install_compiled_fast_paths hooks after wiring is final and
 * before any event has run.
 */

#include "_ckernel.h"

/* Interned attribute names used by the protocol-path cores. */
struct protocol_names PS;

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

/* A CacheArray._sets entry is its set's dict of lines or, until the first
 * install into the set, a shared read-only empty mapping, on which
 * PyDict_GET_SIZE and PyDict_Contains are undefined.  set_get reads any
 * non-dict entry as empty: the line for `key` (borrowed), or NULL, with an
 * exception set only on error. */
static inline PyObject *
set_get(PyObject *set, PyObject *key)
{
    return PyDict_CheckExact(set) ? PyDict_GetItemWithError(set, key) : NULL;
}

/* Entry `index` of `sets` as a dict (borrowed): a new one replaces the
 * empty mapping on the set's first install. */
static PyObject *
set_install(PyObject *sets, Py_ssize_t index)
{
    PyObject *set = PyList_GET_ITEM(sets, index);
    if (PyDict_CheckExact(set))
        return set;
    set = PyDict_New();
    if (set == NULL || PyList_SetItem(sets, index, set) < 0)  /* steals */
        return NULL;
    return set;
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
                                       (PyObject *)self, self->name_obj);
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
    PyObject *line = set_get(l2set, addr_obj);
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
    PyObject *tag = set_get(l1set, addr_obj);
    if (tag == NULL && PyErr_Occurred()) {
        Py_DECREF(state);
        goto fail_all;
    }
    int hit = 0;
    if (tag != NULL) {
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

PyTypeObject CProcCore_Type = {
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
    PyObject *pending;          /* our _Endpoint.pending_injection deque */
    PyObject *pending_append, *pending_popleft;
    PyObject *inject;           /* bound switch.inject (core or pure) */
    PyObject *records;          /* ordering._records dict */
    PyObject *record_meth;      /* bound ordering._record */
    PyObject *sent_counters;    /* network._sent_counters list */
    PyObject *vnet_counter_meth;/* bound network._vnet_counter */
    PyObject *fallback_send;    /* bound network.send */
} CSendCore;


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
        if (!succeeded) {
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

PyTypeObject CSendCore_Type = {
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

PyTypeObject CRecvCore_Type = {
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

PyTypeObject CBusSnoopThunk_Type = {
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
    self->arb_event = event_alloc((PyObject *)self, PS.arb_label);
    if (self->arb_event == NULL)
        goto fail;
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
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
    return queue_push_static_internal(
        self->cqueue, self->arb_event,
        self->sim->now + self->arbitration_cycles);
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
    if (addattr_ll(self->bus, PS.requests_ordered, 1) < 0 ||
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
        self->cqueue, self->sim->now + self->snoop_latency,
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

PyTypeObject CBusCore_Type = {
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
struct ctrl_names TS;

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
    PyObject *request, *cb;     /* armed payload; NULL when idle */
} CFinishThunk;

/* Reusable timeout thunk: the `lambda: self._transaction_timeout(txn)`
 * of the single outstanding transaction. */
typedef struct {
    PyObject_HEAD
    CCtrlCore *core;            /* strong */
    PyObject *txn;
} CTimeoutThunk;


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

/* ------------------------------------------------------- finish thunk */

static int
Finish_traverse(CFinishThunk *self, visitproc visit, void *arg)
{
    Py_VISIT(self->request);
    Py_VISIT(self->cb);
    return 0;
}

static int
Finish_clear_gc(CFinishThunk *self)
{
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
    /* _finish's scheduled callback: hand the request back. */
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
    PyObject *res = PyObject_CallOneArg(cb, request);
    Py_DECREF(request);
    Py_DECREF(cb);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

PyTypeObject CFinishThunk_Type = {
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

PyTypeObject CTimeoutThunk_Type = {
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
                                       (PyObject *)ft, self->name_obj);
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
    PyObject *op = PyObject_GetAttr(request, TS.op);
    if (op == NULL)
        return -1;
    PyObject *id_obj = next_txn_id(self->txn_ids);
    PyObject *txn = id_obj == NULL ? NULL : PyObject_CallFunctionObjArgs(
        self->txn_cls, self->node_obj, addr_obj, op, id_obj, NULL);
    Py_XDECREF(id_obj);
    Py_DECREF(op);
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
                                           self->sim->now + cycles,
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

/* _allocate_line of `addr_obj`, which its set lacks: a full set goes to
 * the pure _install_line(txn, value) (victim choice, eviction, retry);
 * otherwise CacheArray.allocate of a fresh `target` line (0 when `value`
 * is None). */
static int
ctrl_allocate(CCtrlCore *self, long long addr, PyObject *txn,
              PyObject *value, PyObject *addr_obj, PyObject *target)
{
    PyObject *set = set_install(
        self->l2_sets, (Py_ssize_t)((addr / self->l2_block) % self->l2_nsets));
    if (set == NULL)
        return -1;
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
    PyObject *line = set_get(ctrl_set_for(self, taddr), taddr_obj);
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
    PyObject *addr_obj = PyObject_GetAttr(request, PS.address);
    if (addr_obj == NULL)
        return NULL;
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred())
        goto fail_addr;
    /* CacheArray.lookup: probe + LRU touch when the line is present. */
    PyObject *line = set_get(ctrl_set_for(self, addr), addr_obj);
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
} CTxnCore;

static int
TxnCore_traverse(CTxnCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->cls_req_ro);
    Py_VISIT(self->cls_req_rw);
    Py_VISIT(self->cls_final);
    Py_VISIT(self->payload_cls);
    Py_VISIT(self->send);
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

/* _transaction_done: the FinalAck that unblocks the directory. */
static int
txn_done(CCtrlCore *core, PyObject *txn, PyObject *taddr_obj,
         long long taddr)
{
    CTxnCore *self = (CTxnCore *)core;
    return txn_send_home(self, self->cls_final, txn, taddr_obj, taddr);
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
    if (capture_attr(&self->send, ctrl, "send") < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
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
    PyObject *existing = set_get(ctrl_set_for(core, addr), addr_obj);
    if (existing == NULL && PyErr_Occurred())
        return -1;
    if (existing == NULL)
        return ctrl_allocate(core, addr, txn, value, addr_obj, target);
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

PyTypeObject CTxnCore_Type = {
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
 * L1 tag fill and the next-issue schedule.
 * Holds the node's ProcessorCore for the gap-draw fields and the shared
 * _issue_pending scheduling helper.  The fill logs nothing, so the
 * constructor rejects an L1 whose tag array has a change observer. */
typedef struct {
    PyObject_HEAD
    PyObject *proc;
    CProcCore *pc;              /* strong */
    PyObject *valid_state;      /* L1State.VALID */
    PyObject *line_cls;
    PyObject *l1_tags, *l1_sets;
    long long l1_block, l1_nsets, l1_assoc;
    PyObject *counters_dict, *count_meth;
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
    Py_VISIT(self->counters_dict);
    Py_VISIT(self->count_meth);
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
    Py_CLEAR(self->counters_dict);
    Py_CLEAR(self->count_meth);
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
    int observed = (obs != Py_None);
    Py_DECREF(obs);
    if (observed) {
        PyErr_SetString(PyExc_TypeError,
                        "MemoryCompleteCore requires an L1 without an "
                        "observer");
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
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* L1FilterCache.fill: tags.allocate(address, VALID) with no observer. */
static int
memcore_l1_fill(CMemCore *self, PyObject *addr_obj, long long addr)
{
    Py_ssize_t index = (Py_ssize_t)((addr / self->l1_block) % self->l1_nsets);
    PyObject *existing = set_get(PyList_GET_ITEM(self->l1_sets, index),
                                 addr_obj);
    if (existing == NULL && PyErr_Occurred())
        return -1;
    if (existing != NULL)
        return PyObject_SetAttr(existing, PS.state, self->valid_state);
    PyObject *set = set_install(self->l1_sets, index);
    if (set == NULL)
        return -1;
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
    PyObject *addr_obj = PyObject_GetAttr(request, PS.address);
    if (addr_obj == NULL)
        return NULL;
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred()) {
        Py_DECREF(addr_obj);
        return NULL;
    }
    int rc = memcore_l1_fill(self, addr_obj, addr);
    Py_DECREF(addr_obj);
    if (rc < 0)
        return NULL;
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

PyTypeObject CMemCore_Type = {
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
 * stable-state snoops of the snoop() that the bus's snoop filter calls
 * (installed as ctrl.snoop) and the data-network receive_data()
 * install/complete path.  Ports of the pure methods in
 * repro.coherence.snooping.cache_controller.  snoop() runs in C only our
 * own GETS/GETX being ordered, a foreign Writeback, and a foreign
 * GETS/GETX for a block that has no Writeback record here and is not the
 * block of our outstanding transaction.  Every snoop that meets transient
 * state (our own Writeback, the Section 3.2 writeback race, a deferred
 * forward, a late invalidate) calls the pure _snoop_own or
 * _snoop_foreign, so those transitions exist once, in Python; so does the
 * pending-forward service that receive_data() hands over. */

/* Interned attribute names used by the snooping core. */
struct snoop_names SN;

typedef struct {
    CCtrlCore base;
    PyObject *exclusive_state, *owned_state;
    PyObject *gets_type, *getx_type, *wb_type;
    PyObject *busreq_cls;
    long long c2c_cycles;
    PyObject *bus_issue;        /* bus.issue (post-rebind BusCore.issue) */
    PyObject *deliver;          /* ctrl.deliver_data */
    PyObject *writebacks_dict;  /* ctrl.writebacks */
    PyObject *forwards_dict;    /* ctrl._pending_forwards */
    PyObject *passed_set;       /* ctrl._ownership_passed */
    PyObject *own_meth;         /* bound ctrl._snoop_own */
    PyObject *foreign_meth;     /* bound ctrl._snoop_foreign */
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

PyTypeObject CSupplyThunk_Type = {
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

PyTypeObject CSnoopRecvThunk_Type = {
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
    Py_VISIT(self->busreq_cls);
    Py_VISIT(self->bus_issue);
    Py_VISIT(self->deliver);
    Py_VISIT(self->writebacks_dict);
    Py_VISIT(self->forwards_dict);
    Py_VISIT(self->passed_set);
    Py_VISIT(self->own_meth);
    Py_VISIT(self->foreign_meth);
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
    Py_CLEAR(self->busreq_cls);
    Py_CLEAR(self->bus_issue);
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->writebacks_dict);
    Py_CLEAR(self->forwards_dict);
    Py_CLEAR(self->passed_set);
    Py_CLEAR(self->own_meth);
    Py_CLEAR(self->foreign_meth);
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
        *gets_type, *getx_type, *wb_type, *busreq_cls, *txn_cls, *line_cls;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOO", &ctrl, &load_op,
                          &store_op, &exclusive_state, &owned_state,
                          &gets_type, &getx_type, &wb_type, &busreq_cls,
                          &txn_cls, &line_cls))
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
        capture_attr(&self->own_meth, ctrl, "_snoop_own") < 0 ||
        capture_attr(&self->foreign_meth, ctrl, "_snoop_foreign") < 0 ||
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
                                       self->base.sim->now + self->c2c_cycles,
                                       (PyObject *)t, self->base.name_obj);
    Py_DECREF(t);
    if (ev == NULL)
        return -1;
    Py_DECREF(ev);
    return 0;
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
    PyObject *existing = set_get(ctrl_set_for(core, addr), addr_obj);
    if (existing == NULL && PyErr_Occurred())
        return -1;
    if (existing == NULL)
        return ctrl_allocate(core, addr, txn, value, addr_obj, target);
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
    /* Late invalidate (flagged by the pure _snoop_foreign_getx): keep
     * the value for this one load, drop the line. */
    PyObject *flag = PyObject_GetAttr(txn, SN.invalidate_on_install);
    if (flag == NULL)
        goto fail;
    int inval = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    if (inval < 0)
        goto fail;
    if (inval) {
        PyObject *set = ctrl_set_for(&self->base, addr);
        PyObject *line = set_get(set, addr_obj);
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

/* Our own GETS/GETX ordered on the bus (_snoop_own): mark the transaction
 * ordered and, when we already hold valid data, self-deliver it at +1
 * (an upgrade: the global order grants the permission). */
static PyObject *
snoop_own_request(CSnoopCore *self, PyObject *txn, PyObject *addr_obj)
{
    if (comp_count(self->base.counters_dict, self->base.count_meth,
                   SN.own_request_ordered) < 0 ||
        PyObject_SetAttr(txn, SN.bus_ordered, Py_True) < 0)
        return NULL;
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    PyObject *line = set_get(ctrl_set_for(&self->base, addr), addr_obj);
    if (line == NULL) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_FALSE;
    }
    PyObject *state = PyObject_GetAttr(line, PS.state);
    if (state == NULL)
        return NULL;
    int valid = (state != self->base.invalid_state);
    Py_DECREF(state);
    if (!valid)
        Py_RETURN_FALSE;
    PyObject *lvalue = PyObject_GetAttr(line, S.value);
    if (lvalue == NULL)
        return NULL;
    if (lvalue == Py_None)
        Py_SETREF(lvalue, Py_NewRef(self->base.zero_obj));
    CSnoopRecvThunk *rt = PyObject_GC_New(CSnoopRecvThunk,
                                          &CSnoopRecvThunk_Type);
    if (rt == NULL) {
        Py_DECREF(lvalue);
        return NULL;
    }
    Py_INCREF(self);
    rt->core = self;
    Py_INCREF(addr_obj);
    rt->addr = addr_obj;
    rt->value = lvalue;  /* steal */
    PyObject_GC_Track((PyObject *)rt);
    PyObject *ev = queue_push_internal(self->base.cqueue,
                                       self->base.sim->now + 1,
                                       (PyObject *)rt, self->base.name_obj);
    Py_DECREF(rt);
    if (ev == NULL)
        return NULL;
    Py_DECREF(ev);
    Py_RETURN_TRUE;
}

/* A foreign GETS/GETX for a block in a stable state here: an owner
 * supplies the data (a GETS leaves it Owned), and a GETX invalidates any
 * valid copy.  The stable-state branches of _snoop_foreign_gets/getx. */
static PyObject *
snoop_foreign_stable(CSnoopCore *self, PyObject *request, PyObject *addr_obj,
                     int is_gets)
{
    long long addr = PyLong_AsLongLong(addr_obj);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    PyObject *set = ctrl_set_for(&self->base, addr);
    PyObject *line = set_get(set, addr_obj);
    if (line == NULL) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_FALSE;
    }
    Py_INCREF(line);  /* hold across invalidation */
    PyObject *state = PyObject_GetAttr(line, PS.state);
    if (state == NULL) {
        Py_DECREF(line);
        return NULL;
    }
    int is_owner = (state == self->base.modified_state ||
                    state == self->owned_state ||
                    state == self->exclusive_state);
    int rc = 0;
    if (is_owner) {
        if (is_gets && (state == self->base.modified_state ||
                        state == self->exclusive_state))
            rc = txn_set_state(self->base.observer, line, addr_obj,
                               self->owned_state);
        if (rc == 0) {
            PyObject *lvalue = PyObject_GetAttr(line, S.value);
            rc = (lvalue == NULL) ? -1 : snoop_supply(self, request, lvalue);
            Py_XDECREF(lvalue);
        }
    }
    if (rc == 0 && !is_gets && state != self->base.invalid_state)
        rc = snoop_invalidate(self, set, line, addr_obj);
    Py_DECREF(state);
    Py_DECREF(line);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(is_owner);
}

/* snoop(request) -> bool.  The stable-state snoops run here.  A snoop that
 * meets transient state runs the pure handler instead: our own Writeback
 * runs _snoop_own, and a foreign GETS/GETX for a block that has a
 * Writeback record here, or is our transaction's block, runs
 * _snoop_foreign. */
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
    int is_wb = (rtype == self->wb_type);
    int is_gets = (rtype == self->gets_type);
    Py_DECREF(rtype);
    if (is_wb) {
        if (own)
            return PyObject_CallOneArg(self->own_meth, request);
        Py_RETURN_FALSE;  /* another node's Writeback changes nothing here */
    }
    PyObject *addr_obj = PyObject_GetAttr(request, PS.address);
    if (addr_obj == NULL)
        return NULL;
    PyObject *result = NULL;
    int on_txn = 0;
    PyObject *txn = PyObject_GetAttr(self->base.ctrl, TS.transaction);
    if (txn == NULL)
        goto done;
    if (txn != Py_None) {
        PyObject *taddr = PyObject_GetAttr(txn, PS.address);
        if (taddr == NULL)
            goto done;
        on_txn = PyObject_RichCompareBool(taddr, addr_obj, Py_EQ);
        Py_DECREF(taddr);
        if (on_txn < 0)
            goto done;
    }
    if (own) {
        result = on_txn ? snoop_own_request(self, txn, addr_obj)
                        : Py_NewRef(Py_False);
        goto done;
    }
    int transient = on_txn ? 1 : PyDict_Contains(self->writebacks_dict,
                                                 addr_obj);
    if (transient < 0)
        goto done;
    result = transient ? PyObject_CallOneArg(self->foreign_meth, request)
                       : snoop_foreign_stable(self, request, addr_obj,
                                              is_gets);
done:
    Py_XDECREF(txn);
    Py_DECREF(addr_obj);
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

PyTypeObject CSnoopCore_Type = {
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
