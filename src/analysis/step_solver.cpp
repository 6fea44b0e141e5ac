#include "analysis/step_solver.hpp"

#include <utility>

namespace phlogon::an::detail {

ImplicitStepper::ImplicitStepper(const ckt::Dae& dae, std::vector<bool> alg)
    : dae_(&dae), alg_(std::move(alg)) {
    residual_ = [this](const num::Vec& x, num::Vec& out) {
        if (sparse_)
            dae_->evalSparse(tNew_, x, q_, f_, &sc_, &sg_);
        else
            dae_->eval(tNew_, x, q_, f_, &c_, &g_);
        out.resize(q_.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            const double w = newWeight(alg_, i);
            out[i] = (q_[i] - (*qk_)[i]) / h_ + w * f_[i] + (1.0 - w) * (*fk_)[i];
        }
    };
    // Both Jacobian callbacks read C and G from the residual's pass at the
    // same x (Newton's callback contract).
    jacobian_ = [this](const num::Vec& /*x*/, num::Matrix& out) {
        const std::size_t n = c_.rows();
        if (out.rows() != n || out.cols() != n) out.resize(n, n);
        const double invH = 1.0 / h_;
        for (std::size_t r = 0; r < n; ++r) {
            const double w = newWeight(alg_, r);
            for (std::size_t c = 0; c < n; ++c) out(r, c) = c_(r, c) * invH + w * g_(r, c);
        }
    };
    sparseJacobian_ = [this](const num::Vec& /*x*/, num::SparseMatrix& out) {
        // Combine J = C/h + w(r) G row by row into the pattern-cached step
        // Jacobian.  Zero-valued adds still claim their slot, so the union
        // pattern freezes after the first step and stays put.
        const std::size_t n = sc_.rows();
        if (out.rows() != n || out.cols() != n) out.reset(n, n);
        out.beginAssembly();
        const double invH = 1.0 / h_;
        for (std::size_t r = 0; r < n; ++r) {
            const double w = newWeight(alg_, r);
            for (std::size_t p = sc_.rowPtr()[r]; p < sc_.rowPtr()[r + 1]; ++p)
                out.add(r, sc_.colIdx()[p], sc_.values()[p] * invH);
            for (std::size_t p = sg_.rowPtr()[r]; p < sg_.rowPtr()[r + 1]; ++p)
                out.add(r, sg_.colIdx()[p], w * sg_.values()[p]);
        }
        out.endAssembly();
    };
}

bool ImplicitStepper::step(double tNew, double h, const num::Vec& qk, const num::Vec& fk,
                           num::Vec& xNew, const num::NewtonOptions& opt,
                           num::SolverCounters& counters) {
    tNew_ = tNew;
    h_ = h;
    qk_ = &qk;
    fk_ = &fk;
    sparse_ = opt.linearSolver == num::LinearSolver::Sparse;

    // Newton returns at the point of its latest residual, so q_, f_ and the
    // matrices already hold the converged point's pass.
    const num::NewtonResult nr =
        sparse_ ? num::newtonSolveSparse(residual_, sparseJacobian_, xNew, ws_, opt)
                : num::newtonSolve(residual_, jacobian_, xNew, ws_, opt);
    counters += nr.counters;
    return nr.converged;
}

const num::Matrix& ImplicitStepper::c1() {
    if (sparse_) c_ = sc_.toDense();
    return c_;
}

const num::Matrix& ImplicitStepper::g1() {
    if (sparse_) g_ = sg_.toDense();
    return g_;
}

}  // namespace phlogon::an::detail
